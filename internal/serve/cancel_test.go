// Batch-window and end-to-end cancellation tests: a follower canceled
// while parked in the coalescing window detaches without corrupting the
// leader's batch, a canceled leader still hands the solve to its live
// followers, cancellation reaches the CG iteration loop and the
// hierarchy build, and every cancellation leaves the cache entry in a
// state later requests can use. All run under -race in `make check`.
package serve

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// cancelRefSolve computes the sequential single-caller reference for
// the service configuration.
func cancelRefSolve(t *testing.T, cfg Config, a *sparse.Matrix, b []float64) []float64 {
	t.Helper()
	cfg = cfg.withDefaults()
	h, err := amg.Build(a.Clone(), cfg.AMG)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	rt := par.New(cfg.AMG.Threads)
	if _, err := krylov.CGBatchCtx(nil, rt, a, append([]float64(nil), b...), want, 1, krylov.Options{Tol: cfg.Tol, MaxIter: cfg.MaxIter, M: h}); err != nil {
		t.Fatal(err)
	}
	return want
}

func cancelBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: bit mismatch at %d: %g vs %g", what, i, got[i], want[i])
		}
	}
}

// faultPlanKey carries a per-request injection plan through the request
// context into the fault hook.
type faultPlanKey struct{}

type faultPlan struct {
	phase  FaultPhase
	kind   string // "fail" | "panic" | "cancel" | "slow"
	cancel context.CancelFunc
}

var errInjected = errors.New("injected fault")

// planHook is a FaultHook that executes the plan carried in the request
// context, if any; requests without a plan are untouched.
func planHook(p FaultPhase, ctx context.Context) error {
	plan, _ := ctx.Value(faultPlanKey{}).(*faultPlan)
	if plan == nil || plan.phase != p {
		return nil
	}
	switch plan.kind {
	case "fail":
		return errInjected
	case "panic":
		panic("injected fault: solver blew up")
	case "cancel":
		plan.cancel()
		// Wait for the cancellation to be observable on the request
		// context, then give the batch's AfterFunc a moment to
		// propagate it to the solve context: the point of this kind is
		// proving the iteration loop sees it.
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond)
	case "slow":
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func TestServeFollowerCancelDetachesFromWindow(t *testing.T) {
	cfg := Config{
		AMG:         amg.Options{MinCoarseSize: 40},
		Tol:         1e-10,
		MaxIter:     300,
		BatchWindow: 300 * time.Millisecond,
		MaxBatch:    4,
	}
	s := New(cfg)
	a := gen.Laplacian(gen.Laplace3D(7, 7, 7), 0.05)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64((i*7)%13) - 6
	}
	want := cancelRefSolve(t, cfg, a, b)

	// Warm the entry so the leader below goes straight into a window.
	if _, _, err := s.Solve(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}

	type result struct {
		x   []float64
		st  RequestStats
		err error
	}
	leadc := make(chan result, 1)
	go func() {
		x, st, err := s.Solve(context.Background(), a, b)
		leadc <- result{x, st, err}
	}()
	time.Sleep(30 * time.Millisecond) // leader is parked in its window

	fctx, fcancel := context.WithCancel(context.Background())
	folc := make(chan result, 1)
	go func() {
		x, st, err := s.Solve(fctx, a, b)
		folc <- result{x, st, err}
	}()
	time.Sleep(30 * time.Millisecond) // follower has joined the open batch
	start := time.Now()
	fcancel()

	fol := <-folc
	detachLatency := time.Since(start)
	if fol.err == nil {
		t.Fatal("canceled follower returned a result")
	}
	if !errors.Is(fol.err, context.Canceled) {
		t.Fatalf("follower error does not wrap context.Canceled: %v", fol.err)
	}
	if detachLatency > 150*time.Millisecond {
		t.Fatalf("follower took %v to detach; the window still had ~%v to run", detachLatency, 240*time.Millisecond)
	}

	lead := <-leadc
	if lead.err != nil {
		t.Fatalf("leader failed after follower detached: %v", lead.err)
	}
	if lead.st.Batched != 2 {
		t.Fatalf("leader batched %d columns, want 2 (follower never joined?)", lead.st.Batched)
	}
	cancelBitwise(t, "leader result after follower detach", lead.x, want)

	m := s.Metrics()
	if m.Canceled != 1 {
		t.Fatalf("canceled metric = %d, want 1", m.Canceled)
	}
}

func TestServeLeaderCancelStillServesFollower(t *testing.T) {
	cfg := Config{
		AMG:         amg.Options{MinCoarseSize: 40},
		Tol:         1e-10,
		MaxIter:     300,
		BatchWindow: 250 * time.Millisecond,
		MaxBatch:    4,
	}
	s := New(cfg)
	a := gen.Laplacian(gen.Laplace2D(20, 20), 0.1)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64((i*5)%17) - 8
	}
	want := cancelRefSolve(t, cfg, a, b)
	if _, _, err := s.Solve(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}

	type result struct {
		x   []float64
		st  RequestStats
		err error
	}
	lctx, lcancel := context.WithCancel(context.Background())
	leadc := make(chan result, 1)
	go func() {
		x, st, err := s.Solve(lctx, a, b)
		leadc <- result{x, st, err}
	}()
	time.Sleep(30 * time.Millisecond)

	folc := make(chan result, 1)
	go func() {
		x, st, err := s.Solve(context.Background(), a, b)
		folc <- result{x, st, err}
	}()
	time.Sleep(30 * time.Millisecond)
	lcancel() // leader canceled mid-window, follower still live

	fol := <-folc
	if fol.err != nil {
		t.Fatalf("follower failed after leader cancel: %v", fol.err)
	}
	if fol.st.Batched != 2 {
		t.Fatalf("follower batched %d columns, want 2", fol.st.Batched)
	}
	cancelBitwise(t, "follower result after leader cancel", fol.x, want)

	// The canceled leader either completed the solve it led anyway (its
	// own result is then the real answer) or reported the cancellation;
	// either way, never a wrong result.
	lead := <-leadc
	if lead.err == nil {
		cancelBitwise(t, "canceled leader's own result", lead.x, want)
	} else if !errors.Is(lead.err, context.Canceled) {
		t.Fatalf("leader error does not wrap context.Canceled: %v", lead.err)
	}
}

func TestServeCancelReachesIterationLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		AMG:         amg.Options{MinCoarseSize: 60},
		Tol:         1e-12,
		MaxIter:     500,
		BatchWindow: -1, // lead immediately; the fault hook does the canceling
		FaultHook:   planHook,
	}
	s := New(cfg)
	a := gen.Laplacian(gen.Laplace3D(12, 12, 12), 0.05)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64((i*3)%11) - 5
	}
	// Warm the entry cleanly first, so the canceled request below takes
	// the value-hit path straight to the solve.
	if _, _, err := s.Solve(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}

	rctx := context.WithValue(ctx, faultPlanKey{}, &faultPlan{phase: FaultSolve, kind: "cancel", cancel: cancel})
	x, _, err := s.Solve(rctx, a, b)
	if err == nil {
		t.Fatal("request canceled at the solve phase returned no error")
	}
	if x != nil {
		t.Fatal("canceled solve returned a partial iterate")
	}
	if !errors.Is(err, krylov.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want krylov.ErrCanceled wrapping context.Canceled, got %v", err)
	}

	// The cache entry survived the canceled solve: same values pay
	// nothing and solve to the sequential reference bitwise.
	want := cancelRefSolve(t, cfg, a, b)
	x2, st, err := s.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != OutcomeReuse {
		t.Fatalf("outcome after canceled solve = %v, want reuse (entry was not left valid)", st.Outcome)
	}
	cancelBitwise(t, "solve after canceled solve", x2, want)

	m := s.Metrics()
	if m.Canceled != 1 {
		t.Fatalf("canceled metric = %d, want 1", m.Canceled)
	}
	if m.Panics != 0 {
		t.Fatalf("panics metric = %d, want 0", m.Panics)
	}
}

func TestServeCancelReachesHierarchyBuild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		AMG:       amg.Options{MinCoarseSize: 40},
		FaultHook: planHook,
	}
	s := New(cfg)
	a := gen.Laplacian(gen.Laplace3D(8, 8, 8), 0.05)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}

	rctx := context.WithValue(ctx, faultPlanKey{}, &faultPlan{phase: FaultBuild, kind: "cancel", cancel: cancel})
	_, _, err := s.Solve(rctx, a, b)
	if !errors.Is(err, amg.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want amg.ErrCanceled wrapping context.Canceled, got %v", err)
	}

	// The aborted build was dropped; a fresh request rebuilds and serves.
	want := cancelRefSolve(t, cfg, a, b)
	x, st, err := s.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != OutcomeBuild {
		t.Fatalf("outcome after canceled build = %v, want build", st.Outcome)
	}
	cancelBitwise(t, "rebuild after canceled build", x, want)
}

func TestServeRefreshCancelKeepsPreviousOperator(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		AMG:       amg.Options{MinCoarseSize: 40},
		Tol:       1e-10,
		MaxIter:   300,
		FaultHook: planHook,
	}
	s := New(cfg)
	a := gen.Laplacian(gen.Laplace2D(16, 16), 0.1)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	want := cancelRefSolve(t, cfg, a, b)
	if _, _, err := s.Solve(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}

	// Refresh request (new values) canceled at the refresh phase: the
	// pre-mutation check rejects it and the old numeric state survives.
	a2 := a.Clone()
	a2.Scale(3)
	rctx := context.WithValue(ctx, faultPlanKey{}, &faultPlan{phase: FaultRefresh, kind: "cancel", cancel: cancel})
	_, _, err := s.Solve(rctx, a2, b)
	if !errors.Is(err, amg.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want amg.ErrCanceled wrapping context.Canceled, got %v", err)
	}

	// Old values still pay nothing and solve bitwise identically …
	x, st, err := s.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != OutcomeReuse {
		t.Fatalf("outcome for old values after canceled refresh = %v, want reuse", st.Outcome)
	}
	cancelBitwise(t, "old values after canceled refresh", x, want)

	// … and the new values refresh cleanly on the next try.
	want2 := cancelRefSolve(t, cfg, a2, b)
	x2, st2, err := s.Solve(context.Background(), a2, b)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Outcome != OutcomeRefresh {
		t.Fatalf("outcome for retried refresh = %v, want refresh", st2.Outcome)
	}
	cancelBitwise(t, "retried refresh", x2, want2)
}

func TestServePanicInSolveCancelWakesFollowers(t *testing.T) {
	cfg := Config{
		AMG:         amg.Options{MinCoarseSize: 40},
		Tol:         1e-10,
		MaxIter:     300,
		BatchWindow: 200 * time.Millisecond,
		MaxBatch:    4,
		FaultHook:   planHook,
	}
	s := New(cfg)
	a := gen.Laplacian(gen.Laplace2D(18, 18), 0.1)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%9) - 4
	}
	want := cancelRefSolve(t, cfg, a, b)
	if _, _, err := s.Solve(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}

	// Leader carries a mid-batch panic plan; a clean follower joins its
	// window. Both must come back with an error wrapping ErrPanic —
	// never hang on the condition variable.
	rctx := context.WithValue(context.Background(), faultPlanKey{}, &faultPlan{phase: FaultSolve, kind: "panic"})
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Solve(rctx, a, b)
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	_, _, folErr := s.Solve(context.Background(), a, b)
	leadErr := <-errc

	if !errors.Is(leadErr, ErrPanic) {
		t.Fatalf("panicking leader error = %v, want ErrPanic", leadErr)
	}
	if !errors.Is(folErr, ErrPanic) {
		t.Fatalf("follower error = %v, want ErrPanic", folErr)
	}
	if m := s.Metrics(); m.Panics != 1 {
		t.Fatalf("panics metric = %d, want 1", m.Panics)
	}

	// The poisoned entry was retired; the next request rebuilds and the
	// result is still bitwise the sequential reference.
	x, st, err := s.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != OutcomeBuild {
		t.Fatalf("outcome after contained panic = %v, want build", st.Outcome)
	}
	cancelBitwise(t, "rebuild after contained panic", x, want)
}
