// End-to-end cancellation and panic tests: cancellation reaches the CG
// iteration loop, the hierarchy build and the numeric refresh, every
// cancellation leaves the cache entry in a state later requests can
// use, and a request queued behind a contained solve panic rebuilds.
// All run under -race in `make check`.
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
	if _, err := krylov.CGCtx(nil, rt, a, append([]float64(nil), b...), want, krylov.Options{Tol: cfg.Tol, MaxIter: cfg.MaxIter, M: h}); err != nil {
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
		// The request context is the solve context: once it reports
		// done, the iteration loop will see the cancellation.
		<-ctx.Done()
	case "slow":
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func TestServeCancelReachesIterationLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		AMG:       amg.Options{MinCoarseSize: 60},
		Tol:       1e-12,
		MaxIter:   500,
		FaultHook: planHook,
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

// TestServePanicInSolveQueuedRequestRebuildsBitwise: a request panics
// in its solve while a clean request for the same operator is queued on
// the entry lock. The panicking request gets ErrPanic; the queued one
// must find the entry reset, rebuild, and return the sequential
// reference bitwise — never hang, never solve on the poisoned state.
func TestServePanicInSolveQueuedRequestRebuildsBitwise(t *testing.T) {
	type panicKey struct{}
	entered := make(chan struct{})
	cfg := Config{
		AMG:     amg.Options{MinCoarseSize: 40},
		Tol:     1e-10,
		MaxIter: 300,
		FaultHook: func(p FaultPhase, ctx context.Context) error {
			if p == FaultSolve && ctx.Value(panicKey{}) != nil {
				close(entered)
				time.Sleep(30 * time.Millisecond) // let the clean request queue on the entry lock
				panic("injected fault: solver blew up")
			}
			return nil
		},
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

	rctx := context.WithValue(context.Background(), panicKey{}, true)
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Solve(rctx, a, b)
		errc <- err
	}()
	<-entered // the panicking request holds the entry lock
	x, st, err := s.Solve(context.Background(), a, b)
	if perr := <-errc; !errors.Is(perr, ErrPanic) {
		t.Fatalf("panicking request error = %v, want ErrPanic", perr)
	}
	if err != nil {
		t.Fatalf("queued request failed after a neighbor's panic: %v", err)
	}
	if st.Outcome != OutcomeBuild {
		t.Fatalf("queued request outcome = %v, want build", st.Outcome)
	}
	cancelBitwise(t, "queued request after contained panic", x, want)
	if m := s.Metrics(); m.Panics != 1 {
		t.Fatalf("panics metric = %d, want 1", m.Panics)
	}
}
