// White-box tests for the solve service's cache layer: LRU eviction
// under capacity pressure, fingerprint-collision shape checks,
// single-flight builds, outcome accounting, and the bitwise equivalence
// of solo and concurrent solves.
package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/hash"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// testConfig returns a service configuration sized for the small test
// problems: modest iteration budget.
func testConfig() Config {
	return Config{
		AMG:     amg.Options{MinCoarseSize: 40},
		Tol:     1e-10,
		MaxIter: 200,
	}
}

// testProblem builds a small SPD system with a deterministic RHS.
func testProblem(nx int, shift float64) (*sparse.Matrix, []float64) {
	a := gen.Laplacian(gen.Laplace3D(nx, nx, nx), shift)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%17)/17
	}
	return a, b
}

// referenceSolve is the sequential single-caller baseline the service
// must match bitwise: a fresh hierarchy and a CGCtx solve.
func referenceSolve(t *testing.T, cfg Config, a *sparse.Matrix, b []float64) []float64 {
	t.Helper()
	cfg = cfg.withDefaults()
	h, err := amg.Build(a, cfg.AMG)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	bb := append([]float64(nil), b...)
	if _, err := krylov.CGCtx(nil, par.New(cfg.AMG.Threads), a, bb, x, krylov.Options{Tol: cfg.Tol, MaxIter: cfg.MaxIter, M: h}); err != nil {
		t.Fatal(err)
	}
	return x
}

func bitwiseEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: bit mismatch at %d: %g vs %g", label, i, got[i], want[i])
		}
	}
}

func TestServeSolveMatchesSequentialReference(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	a, b := testProblem(8, 0.05)
	want := referenceSolve(t, cfg, a, b)

	x, st, err := s.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != OutcomeBuild {
		t.Fatalf("first request outcome %v, want build", st.Outcome)
	}
	bitwiseEqual(t, "first solve", x, want)

	// Identical values: pay nothing, same bits.
	x2, st2, err := s.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Outcome != OutcomeReuse {
		t.Fatalf("repeat outcome %v, want reuse", st2.Outcome)
	}
	bitwiseEqual(t, "repeat solve", x2, want)

	// New values on the same pattern: numeric refresh only, and the
	// result matches a fresh sequential build of the new operator.
	a2 := a.Clone()
	a2.Scale(1.5)
	want2 := referenceSolve(t, cfg, a2.Clone(), b)
	x3, st3, err := s.Solve(context.Background(), a2, b)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Outcome != OutcomeRefresh {
		t.Fatalf("new-values outcome %v, want refresh", st3.Outcome)
	}
	bitwiseEqual(t, "refreshed solve", x3, want2)

	m := s.Metrics()
	if m.Builds != 1 || m.Refreshes != 1 || m.ValueHits != 1 || m.Requests != 3 {
		t.Fatalf("metrics %+v, want builds=1 refreshes=1 valueHits=1 requests=3", m)
	}
}

func TestServeCacheLRUEviction(t *testing.T) {
	cfg := testConfig()
	cfg.CacheCapacity = 2
	s := New(cfg)
	ctx := context.Background()

	problems := [][2]int{{6, 0}, {7, 0}, {8, 0}}
	mats := make([]*sparse.Matrix, len(problems))
	rhs := make([][]float64, len(problems))
	for i, p := range problems {
		mats[i], rhs[i] = testProblem(p[0], 0.05)
	}
	for i := range mats {
		if _, st, err := s.Solve(ctx, mats[i], rhs[i]); err != nil {
			t.Fatal(err)
		} else if st.Outcome != OutcomeBuild {
			t.Fatalf("pattern %d outcome %v, want build", i, st.Outcome)
		}
	}
	m := s.Metrics()
	if m.Evictions != 1 {
		t.Fatalf("evictions %d, want 1 (capacity 2, 3 patterns)", m.Evictions)
	}
	// Pattern 0 was least recently used and must have been evicted:
	// touching it again is a rebuild. Pattern 2 stays cached.
	if _, st, err := s.Solve(ctx, mats[0], rhs[0]); err != nil {
		t.Fatal(err)
	} else if st.Outcome != OutcomeBuild {
		t.Fatalf("evicted pattern outcome %v, want build", st.Outcome)
	}
	if _, st, err := s.Solve(ctx, mats[2], rhs[2]); err != nil {
		t.Fatal(err)
	} else if st.Outcome != OutcomeReuse {
		t.Fatalf("resident pattern outcome %v, want reuse", st.Outcome)
	}
	m = s.Metrics()
	if m.Builds != 4 || m.Evictions != 2 {
		t.Fatalf("metrics %+v, want builds=4 evictions=2", m)
	}
}

// TestServeFingerprintCollisionShapeCheck forges a collision: the cache
// index is made to map a matrix's fingerprint to an entry recorded for
// a different shape. The request must detect the shape mismatch, bypass
// the cache, and still produce the bitwise-correct answer.
func TestServeFingerprintCollisionShapeCheck(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	ctx := context.Background()
	a, b := testProblem(8, 0.05)
	a2, b2 := testProblem(6, 0.05)
	if _, _, err := s.Solve(ctx, a, b); err != nil {
		t.Fatal(err)
	}

	// Forge: point a2's fingerprint at the entry built for a.
	key2 := hash.PatternFingerprint(a2.Rows, a2.Cols, a2.RowPtr, a2.Col)
	s.mu.Lock()
	keyA := hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col)
	s.entries[key2] = s.entries[keyA]
	s.mu.Unlock()

	want := referenceSolve(t, cfg, a2.Clone(), b2)
	x, st, err := s.Solve(ctx, a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != OutcomeCollision {
		t.Fatalf("outcome %v, want collision", st.Outcome)
	}
	bitwiseEqual(t, "collision solve", x, want)
	if m := s.Metrics(); m.Collisions != 1 {
		t.Fatalf("collisions %d, want 1", m.Collisions)
	}
}

// TestServeSingleFlightBuild: K concurrent first-requests for one
// pattern must build the hierarchy exactly once.
func TestServeSingleFlightBuild(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	a, b := testProblem(8, 0.05)
	want := referenceSolve(t, cfg, a, b)

	const k = 8
	var wg sync.WaitGroup
	results := make([][]float64, k)
	errs := make([]error, k)
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine passes its own matrix copy: the service
			// must not rely on callers sharing pointers.
			results[g], _, errs[g] = s.Solve(context.Background(), a.Clone(), append([]float64(nil), b...))
		}(g)
	}
	wg.Wait()
	for g := 0; g < k; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		bitwiseEqual(t, "single-flight result", results[g], want)
	}
	m := s.Metrics()
	if m.Builds != 1 {
		t.Fatalf("builds %d, want exactly 1 for %d concurrent first-requests", m.Builds, k)
	}
	if m.ValueHits != k-1 {
		t.Fatalf("valueHits %d, want %d", m.ValueHits, k-1)
	}
}

// TestServeConcurrentSameOperatorBitwiseMatchesSolo: k concurrent
// requests against one primed operator queue on its entry lock and each
// solve their own column; every result must be bitwise identical to the
// same request served alone (and to the sequential reference), and each
// request makes exactly one solve call.
func TestServeConcurrentSameOperatorBitwiseMatchesSolo(t *testing.T) {
	a, _ := testProblem(8, 0.05)
	n := a.Rows
	const k = 4
	rhs := make([][]float64, k)
	for j := range rhs {
		rhs[j] = make([]float64, n)
		for i := range rhs[j] {
			rhs[j][i] = float64((i+3*j)%11) - 5 + float64(j)
		}
	}

	cfg := testConfig()
	solo := New(cfg)
	want := make([][]float64, k)
	for j := range rhs {
		x, _, err := solo.Solve(context.Background(), a, rhs[j])
		if err != nil {
			t.Fatal(err)
		}
		want[j] = x
		bitwiseEqual(t, "solo vs reference", x, referenceSolve(t, cfg, a.Clone(), rhs[j]))
	}

	s := New(cfg)
	// Prime the cache so the concurrent requests all take the reuse path.
	if _, _, err := s.Solve(context.Background(), a, rhs[0]); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics()
	var wg sync.WaitGroup
	got := make([][]float64, k)
	stats := make([]RequestStats, k)
	errs := make([]error, k)
	for j := 0; j < k; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			got[j], stats[j], errs[j] = s.Solve(context.Background(), a, rhs[j])
		}(j)
	}
	wg.Wait()
	for j := 0; j < k; j++ {
		if errs[j] != nil {
			t.Fatalf("request %d: %v", j, errs[j])
		}
		if stats[j].Outcome != OutcomeReuse {
			t.Fatalf("request %d outcome %v, want reuse", j, stats[j].Outcome)
		}
		bitwiseEqual(t, "concurrent vs solo", got[j], want[j])
	}
	m := s.Metrics()
	if d := m.BatchSolves - before.BatchSolves; d != k {
		t.Fatalf("solve calls grew by %d, want %d (one per request)", d, k)
	}
	if d := m.BatchedRHS - before.BatchedRHS; d != k {
		t.Fatalf("solved columns grew by %d, want %d", d, k)
	}
}

// TestServeMultiRHSRequest: one request carrying several right-hand
// sides solves each column bitwise equal to its solo solve, and a
// failing column fails alone: the request's other columns still come
// back converged and bitwise equal to their solo solves.
func TestServeMultiRHSRequest(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	a, _ := testProblem(7, 0.05)
	n := a.Rows
	bs := make([][]float64, 3)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = float64((i*7+j)%13) - 6
		}
	}
	xs, st, err := s.SolveBatch(context.Background(), a, bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Columns) != 3 || len(xs) != 3 {
		t.Fatalf("columns=%d results=%d, want 3/3", len(st.Columns), len(xs))
	}
	for j := range bs {
		bitwiseEqual(t, "multi-RHS column", xs[j], referenceSolve(t, cfg, a.Clone(), bs[j]))
	}

	// A NaN in the middle column: that column fails non-finite, the
	// request error says so, and the healthy columns are untouched.
	poisoned := [][]float64{bs[0], append([]float64(nil), bs[1]...), bs[2]}
	poisoned[1][5] = math.NaN()
	xs, st, err = s.SolveBatch(context.Background(), a, poisoned)
	if !errors.Is(err, krylov.ErrNonFinite) {
		t.Fatalf("want an error wrapping krylov.ErrNonFinite, got %v", err)
	}
	if len(st.Columns) != 3 || len(xs) != 3 {
		t.Fatalf("columns=%d results=%d, want 3/3", len(st.Columns), len(xs))
	}
	if st.Columns[1].Converged || st.Converged {
		t.Fatalf("NaN column reported converged: %+v", st)
	}
	for _, j := range []int{0, 2} {
		if !st.Columns[j].Converged {
			t.Fatalf("healthy column %d not converged: %+v", j, st.Columns[j])
		}
		bitwiseEqual(t, "healthy column beside a NaN column", xs[j], referenceSolve(t, cfg, a.Clone(), bs[j]))
	}
}

// TestServeRejectedRefreshKeepsEntryUsable: a Refresh rejected
// pre-mutation (zero diagonal) must leave the cached operator serving
// the previous values bitwise unchanged.
func TestServeRejectedRefreshKeepsEntryUsable(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	ctx := context.Background()
	a, b := testProblem(7, 0.05)
	want, _, err := s.Solve(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}

	bad := a.Clone()
	for p := bad.RowPtr[3]; p < bad.RowPtr[4]; p++ {
		if int(bad.Col[p]) == 3 {
			bad.Val[p] = 0
		}
	}
	if _, _, err := s.Solve(ctx, bad, b); err == nil {
		t.Fatal("zero-diagonal refresh not rejected")
	}

	x, st, err := s.Solve(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != OutcomeReuse {
		t.Fatalf("outcome %v after rejected refresh, want reuse (previous values intact)", st.Outcome)
	}
	bitwiseEqual(t, "after rejected refresh", x, want)
	if m := s.Metrics(); m.Builds != 1 {
		t.Fatalf("builds %d, want 1 (rejection must not drop the entry)", m.Builds)
	}
}

func TestServeBackpressureAdmission(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInFlight = 1
	s := New(cfg)
	a, b := testProblem(6, 0.05)

	// A canceled context is refused at admission when no slot frees up.
	s.sem <- struct{}{} // occupy the only slot
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Solve(ctx, a, b); err == nil {
		t.Fatal("canceled request admitted past a full service")
	}
	<-s.sem
	if m := s.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", m.Rejected)
	}
	// With the slot free, the same request succeeds and releases its
	// slot for the next one.
	for i := 0; i < 2; i++ {
		if _, _, err := s.Solve(context.Background(), a, b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	s := New(testConfig())
	ctx := context.Background()
	a, b := testProblem(6, 0.05)
	if _, _, err := s.Solve(ctx, a, b[:len(b)-1]); err == nil {
		t.Fatal("short right-hand side accepted")
	}
	rect := &sparse.Matrix{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}
	if _, _, err := s.Solve(ctx, rect, make([]float64, 2)); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
	if _, _, err := s.SolveBatch(ctx, a, nil); err == nil {
		t.Fatal("empty request accepted")
	}
	// A matrix the hierarchy build rejects must not poison the cache:
	// the entry is dropped and a later valid same-pattern request works.
	bad := a.Clone()
	for p := bad.RowPtr[0]; p < bad.RowPtr[1]; p++ {
		if int(bad.Col[p]) == 0 {
			bad.Val[p] = 0 // zero diagonal: numeric build fails
		}
	}
	if _, _, err := s.Solve(ctx, bad, b); err == nil {
		t.Fatal("zero-diagonal build accepted")
	}
	if _, st, err := s.Solve(ctx, a, b); err != nil {
		t.Fatal(err)
	} else if st.Outcome != OutcomeBuild {
		t.Fatalf("outcome %v after failed build, want build", st.Outcome)
	}
}

// TestServeUnknownSmootherFailsBuild: a service configured with a
// smoother value amg does not know fails each request as a hierarchy
// build error — not silently served with Jacobi, not escalated and not
// counted as a numerical failure — and caches nothing.
func TestServeUnknownSmootherFailsBuild(t *testing.T) {
	cfg := testConfig()
	cfg.AMG.Smoother = amg.Smoother(99)
	s := New(cfg)
	a, b := testProblem(6, 0.05)
	for i := 0; i < 2; i++ {
		x, _, err := s.Solve(context.Background(), a, b)
		if err == nil {
			t.Fatal("request served with an unknown smoother")
		}
		if x != nil {
			t.Fatal("failed build returned a solution")
		}
		if msg := err.Error(); !strings.Contains(msg, "hierarchy build") || !strings.Contains(msg, "unknown smoother 99") {
			t.Fatalf("error %q, want a hierarchy build error naming the smoother", msg)
		}
	}
	m := s.Metrics()
	if m.Builds != 0 || m.NumericalFailures != 0 || m.Escalations != 0 {
		t.Fatalf("metrics %+v: want no builds, numerical failures or escalations", m)
	}
}

// TestServeEqualShapeCollision forges the nastier collision: same rows,
// cols, and nnz but a different pattern mapped to a cached entry's key.
// The exact pattern comparison on the hit path must catch it and serve
// the request uncached — never scatter the request's values onto the
// cached pattern.
func TestServeEqualShapeCollision(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	ctx := context.Background()
	// Two equal-shape, equal-nnz, different-pattern SPD systems: 1D
	// chains with the off-diagonal pair at different positions.
	chain := func(gap int) *sparse.Matrix {
		const n = 8
		a := &sparse.Matrix{Rows: n, Cols: n, RowPtr: make([]int, 1, n+1)}
		add := func(c int, v float64) { a.Col = append(a.Col, int32(c)); a.Val = append(a.Val, v) }
		for i := 0; i < n; i++ {
			if i == gap+1 {
				add(gap, -1)
			}
			add(i, 4)
			if i == gap {
				add(gap+1, -1)
			}
			a.RowPtr = append(a.RowPtr, len(a.Col))
		}
		return a
	}
	a1, a2 := chain(1), chain(5)
	if a1.NNZ() != a2.NNZ() {
		t.Fatal("test bug: shapes differ")
	}
	b := make([]float64, a1.Rows)
	for i := range b {
		b[i] = float64(i + 1)
	}
	if _, _, err := s.Solve(ctx, a1, b); err != nil {
		t.Fatal(err)
	}
	key2 := hash.PatternFingerprint(a2.Rows, a2.Cols, a2.RowPtr, a2.Col)
	key1 := hash.PatternFingerprint(a1.Rows, a1.Cols, a1.RowPtr, a1.Col)
	s.mu.Lock()
	s.entries[key2] = s.entries[key1]
	s.mu.Unlock()

	want := referenceSolve(t, cfg, a2.Clone(), b)
	x, st, err := s.Solve(ctx, a2, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != OutcomeCollision {
		t.Fatalf("outcome %v, want collision", st.Outcome)
	}
	bitwiseEqual(t, "equal-shape collision", x, want)
	if m := s.Metrics(); m.Collisions != 1 || m.Refreshes != 0 {
		t.Fatalf("metrics %+v, want collisions=1 refreshes=0", m)
	}
}

// TestServeDeepRefreshFailureResetsEntry: a refresh that passes the
// pre-mutation validation but fails mid-replay (singular coarse
// factorization) invalidates the hierarchy; the entry must be reset so
// same-pattern requests still holding it rebuild instead of panicking
// on the invalidated state.
func TestServeDeepRefreshFailureResetsEntry(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	ctx := context.Background()
	a := &sparse.Matrix{Rows: 2, Cols: 2,
		RowPtr: []int{0, 2, 4}, Col: []int32{0, 1, 0, 1}, Val: []float64{2, 1, 1, 2}}
	b := []float64{1, 2}
	want, _, err := s.Solve(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the live entry, as a concurrent same-pattern waiter would.
	key := hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col)
	s.mu.Lock()
	e := s.entries[key]
	s.mu.Unlock()

	// Positive finite diagonal, same signs — passes pre-validation —
	// but singular, so the dense coarse factorization fails mid-replay.
	sing := a.Clone()
	copy(sing.Val, []float64{1, 1, 1, 1})
	if _, _, err := s.Solve(ctx, sing, b); err == nil {
		t.Fatal("singular refresh not rejected")
	}
	if e.h != nil {
		t.Fatal("deep refresh failure left the invalidated hierarchy on the entry")
	}
	// A waiter still holding the dropped entry rebuilds through it.
	var st RequestStats
	xs, _, err := s.solveCached(ctx, e, a, [][]float64{b}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != OutcomeBuild {
		t.Fatalf("outcome %v through reset entry, want build", st.Outcome)
	}
	bitwiseEqual(t, "rebuild through reset entry", xs[0], want)
	// And a fresh request (new lookup) works too.
	x2, _, err := s.Solve(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "fresh request after deep failure", x2, want)
}

// TestServeDeepRefreshFailureQueuedRequestsRebuildBitwise: requests
// with new values queue on the entry lock behind a refresh that fails
// mid-replay and resets the entry. The first of them to take the lock
// must find the unbuilt state and rebuild — never dereference the reset
// fine matrix or touch the invalidated hierarchy — and every queued
// request must return its sequential reference bitwise.
func TestServeDeepRefreshFailureQueuedRequestsRebuildBitwise(t *testing.T) {
	good := &sparse.Matrix{Rows: 2, Cols: 2,
		RowPtr: []int{0, 2, 4}, Col: []int32{0, 1, 0, 1}, Val: []float64{2, 1, 1, 2}}
	scaled := good.Clone()
	scaled.Scale(3)
	sing := good.Clone()
	copy(sing.Val, []float64{1, 1, 1, 1}) // passes pre-validation, singular coarse factorization
	b := []float64{1, 2}

	// The refresher holds the entry lock in its refresh hook until the
	// queued requests have had time to reach the lock.
	type holdKey struct{}
	cfg := testConfig()
	cfg.FaultHook = func(p FaultPhase, ctx context.Context) error {
		if entered, ok := ctx.Value(holdKey{}).(chan struct{}); ok && p == FaultRefresh {
			close(entered)
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}
	queued := []*sparse.Matrix{scaled, good}
	want := make([][]float64, len(queued))
	for i, m := range queued {
		want[i] = referenceSolve(t, cfg, m.Clone(), b)
	}

	// Which queued request takes the lock first is up to the scheduler;
	// iterate so both orders occur.
	for it := 0; it < 4; it++ {
		s := New(cfg)
		ctx := context.Background()
		if _, _, err := s.Solve(ctx, good, b); err != nil { // build
			t.Fatal(err)
		}
		entered := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // deep-failing refresher
			defer wg.Done()
			if _, _, err := s.Solve(context.WithValue(ctx, holdKey{}, entered), sing, b); err == nil {
				t.Error("singular refresh not rejected")
			}
		}()
		<-entered
		outcomes := make([]Outcome, len(queued))
		for i, m := range queued {
			wg.Add(1)
			go func(i int, m *sparse.Matrix) {
				defer wg.Done()
				x, st, err := s.Solve(ctx, m, b)
				if err != nil {
					t.Error(err)
					return
				}
				outcomes[i] = st.Outcome
				bitwiseEqual(t, "queued request after deep failure", x, want[i])
			}(i, m)
		}
		wg.Wait()
		if outcomes[0] != OutcomeBuild && outcomes[1] != OutcomeBuild {
			t.Fatalf("iteration %d: outcomes %v, want a rebuild after the deep failure", it, outcomes)
		}
	}
}

// TestServeQueuedRebuildIsCachedBitwise: a request queued on an entry
// that a contained panic reset rebuilds it, and that build goes back in
// the cache. Request 1 builds and panics at FaultSolve while request 2
// waits on the entry lock; request 3 repeats request 2. Outcomes read
// build, build, reuse, with two builds in all, and the clean requests
// return their sequential reference bitwise.
func TestServeQueuedRebuildIsCachedBitwise(t *testing.T) {
	type panicKey struct{}
	entered := make(chan struct{})
	cfg := testConfig()
	cfg.FaultHook = func(p FaultPhase, ctx context.Context) error {
		if p == FaultSolve && ctx.Value(panicKey{}) != nil {
			close(entered)
			time.Sleep(30 * time.Millisecond) // let request 2 queue on the entry lock
			panic("injected fault: solver blew up")
		}
		return nil
	}
	s := New(cfg)
	a, b := testProblem(8, 0.05)
	want := referenceSolve(t, cfg, a.Clone(), b)

	var st1 RequestStats
	var err1 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, st1, err1 = s.Solve(context.WithValue(context.Background(), panicKey{}, true), a, b)
	}()
	<-entered // request 1 holds the entry lock
	x2, st2, err := s.Solve(context.Background(), a, b)
	<-done
	if !errors.Is(err1, ErrPanic) {
		t.Fatalf("request 1 error = %v, want ErrPanic", err1)
	}
	if err != nil {
		t.Fatalf("request 2: %v", err)
	}
	x3, st3, err := s.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatalf("request 3: %v", err)
	}
	got := []Outcome{st1.Outcome, st2.Outcome, st3.Outcome}
	if m := s.Metrics(); m.Builds != 2 {
		t.Fatalf("builds %d (outcomes %v), want 2", m.Builds, got)
	}
	if got[0] != OutcomeBuild || got[1] != OutcomeBuild || got[2] != OutcomeReuse {
		t.Fatalf("outcomes %v, want build, build, reuse", got)
	}
	bitwiseEqual(t, "request 2", x2, want)
	bitwiseEqual(t, "request 3", x3, want)
}

// TestServeRejectsOversizedRequest: MaxBatch bounds a single request's
// own columns too, keeping the entry-retained solver scratch bounded.
func TestServeRejectsOversizedRequest(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 2
	s := New(cfg)
	a, b := testProblem(6, 0.05)
	if _, _, err := s.SolveBatch(context.Background(), a, [][]float64{b, b, b}); err == nil {
		t.Fatal("request wider than MaxBatch accepted")
	}
	if _, _, err := s.SolveBatch(context.Background(), a, [][]float64{b, b}); err != nil {
		t.Fatal(err)
	}
}

// TestServeSELLOuterOperatorBitwise serves a pattern large and regular
// enough (13^3 = 2197 rows) that sparse.ChooseFormat puts the finest
// level — and hence the outer CG operator, the hierarchy's
// FineOperator — on SELL. Build, reuse, and refresh (the hierarchy
// refills the SELL values chunk by chunk) must serve
// results bitwise identical to the sequential reference, whose outer
// operator is the CSR matrix itself.
func TestServeSELLOuterOperatorBitwise(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	ctx := context.Background()

	a, b := testProblem(13, 0.05)
	a2 := a.Clone()
	a2.Scale(1.75)
	for step, m := range []*sparse.Matrix{a, a, a2, a} {
		want := referenceSolve(t, cfg, m, b)
		got, st, err := s.Solve(ctx, m, b)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, "SELL outer operator step "+string(rune('0'+step)), got, want)
		if step > 0 && st.Outcome == OutcomeBuild {
			t.Fatalf("step %d rebuilt instead of reusing/refreshing", step)
		}
	}
	// White-box: the entry's outer operator really is the hierarchy's
	// SELL finest level.
	key := hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col)
	s.mu.Lock()
	e := s.entries[key]
	s.mu.Unlock()
	if e == nil || e.h == nil {
		t.Fatal("pattern not cached")
	}
	if f := e.h.Levels[0].Format(); f != sparse.FormatSELL {
		t.Fatalf("finest level format %v, want SELL", f)
	}
	if _, ok := e.h.FineOperator().(*sparse.SELL); !ok {
		t.Fatalf("outer operator is %T, want *sparse.SELL", e.h.FineOperator())
	}
}

// TestServeNaNResidualIsWorst: a column whose final residual is NaN
// makes the request-level residual NaN, never a finite (or perfect 0)
// value. End to end, every b entry at 1e308 overflows the residual norm
// of a Laplace2D 8x8 solve; directly, finalize keeps NaN wherever it
// sits among finite columns.
func TestServeNaNResidualIsWorst(t *testing.T) {
	s := New(testConfig())
	a := gen.Laplacian(gen.Laplace2D(8, 8), 1e-2)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1e308
	}
	_, st, err := s.Solve(context.Background(), a, b)
	if err == nil {
		t.Fatal("solve with an overflowing right-hand side succeeded")
	}
	if len(st.Columns) != 1 || !math.IsNaN(st.Columns[0].RelResidual) {
		t.Fatalf("column stats %+v, want one column with relres NaN", st.Columns)
	}
	if !math.IsNaN(st.RelResidual) || st.Converged {
		t.Fatalf("request relres %g converged %v, want NaN and false", st.RelResidual, st.Converged)
	}
	nan := math.NaN()
	for _, cols := range [][]float64{{nan, 0.5}, {0.5, nan}, {0.5, nan, 2}} {
		rs := RequestStats{}
		for _, r := range cols {
			rs.Columns = append(rs.Columns, krylov.Stats{RelResidual: r, Converged: true})
		}
		rs.finalize()
		if !math.IsNaN(rs.RelResidual) {
			t.Fatalf("columns %v: request relres %g, want NaN", cols, rs.RelResidual)
		}
	}
}
