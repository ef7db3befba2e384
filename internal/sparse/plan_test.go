package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mis2go/internal/par"
)

// matricesEqual fails the test unless got equals want bitwise in
// pattern and values.
func matricesEqual(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if err := diffMatrices(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// diffMatrices describes the first difference between got and want in
// shape, pattern or value bits, or returns nil when there is none.
func diffMatrices(got, want *Matrix) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			return fmt.Errorf("RowPtr[%d]=%d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	if len(got.Col) != len(want.Col) {
		return fmt.Errorf("nnz %d, want %d", len(got.Col), len(want.Col))
	}
	for p := range want.Col {
		if got.Col[p] != want.Col[p] {
			return fmt.Errorf("Col[%d]=%d, want %d", p, got.Col[p], want.Col[p])
		}
		if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
			return fmt.Errorf("Val[%d]=%v, want %v (not bitwise identical)", p, got.Val[p], want.Val[p])
		}
	}
	return nil
}

// perturb returns a copy of a with deterministically rescaled values —
// the "same pattern, new values" refresh input.
func perturb(a *Matrix, seed int) *Matrix {
	b := a.Clone()
	for p := range b.Val {
		b.Val[p] *= 1 + 0.001*float64((p+seed)%17)
	}
	return b
}

var planWorkerCounts = []int{1, 2, 8}

func TestProductPlanMatchesMultiply(t *testing.T) {
	a := randomMatrix(120, 90, 0.06, 1)
	b := randomMatrix(90, 70, 0.08, 2)
	for _, w := range planWorkerCounts {
		rt := par.New(w)
		pl, err := PlanMultiply(rt, a, b)
		if err != nil {
			t.Fatal(err)
		}
		c := pl.NewMatrix()
		// Replay twice (the second replay exercises in-place refill) and
		// against perturbed values.
		for trial, av := range []*Matrix{a, a, perturb(a, 3)} {
			bv := b
			if trial == 2 {
				bv = perturb(b, 5)
			}
			if err := pl.Replay(rt, av, bv, c); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, "product replay", c, refMultiply(av, bv))
			if err := c.Validate(); err != nil {
				t.Fatalf("replayed product invalid: %v", err)
			}
		}
	}
}

func TestProductPlanRejectsBadShapes(t *testing.T) {
	rt := par.New(1)
	a := randomMatrix(40, 30, 0.1, 7)
	b := randomMatrix(30, 20, 0.1, 8)
	pl, err := PlanMultiply(rt, a, b)
	if err != nil {
		t.Fatal(err)
	}
	c := pl.NewMatrix()
	if err := pl.Replay(rt, randomMatrix(41, 30, 0.1, 9), b, c); err == nil {
		t.Fatal("replay with a different A shape not rejected")
	}
	if err := pl.Replay(rt, a, b, a.Clone()); err == nil {
		t.Fatal("replay into a result without the plan pattern not rejected")
	}
	if _, err := PlanMultiply(rt, a, randomMatrix(31, 20, 0.1, 11)); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	s := randomMatrix(30, 30, 0.1, 12)
	if _, err := PlanSmoothProlongator(rt, s, &Matrix{Rows: 3, Cols: 2, RowPtr: []int{0, 0, 0, 0}}); err == nil {
		t.Fatal("smooth plan with a mismatched inner dimension not rejected")
	}
	sp, err := PlanSmoothProlongator(rt, s, b)
	if err != nil {
		t.Fatal(err)
	}
	dinv := make([]float64, s.Rows)
	if err := sp.Replay(rt, s, b, dinv[:10], 0.5, sp.NewMatrix()); err == nil {
		t.Fatal("smooth replay with a short dinv not rejected")
	}
	if err := sp.Replay(rt, s, b, dinv, 0.5, pl.NewMatrix()); err == nil {
		t.Fatal("smooth replay into a result without the plan pattern not rejected")
	}
}

func TestTransposePlanMatchesTranspose(t *testing.T) {
	a := randomMatrix(80, 130, 0.05, 3)
	for _, w := range planWorkerCounts {
		rt := par.New(w)
		pl := PlanTranspose(rt, a)
		tr := pl.NewMatrix()
		for _, av := range []*Matrix{a, perturb(a, 1)} {
			if err := pl.Replay(rt, av, tr); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, "transpose replay", tr, av.TransposeWith(rt))
		}
	}
	// A plan built at one worker count must replay identically at others
	// (the permutation is blocking-independent).
	rt8 := par.New(8)
	pl8 := PlanTranspose(rt8, a)
	tr8 := pl8.NewMatrix()
	if err := pl8.Replay(par.New(1), a, tr8); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, "cross-worker transpose replay", tr8, a.Transpose())
}

// refTranspose is the serial counting sort: entries land in column
// buckets in row-major input order. perm[p] is entry p's output position.
func refTranspose(a *Matrix) (t *Matrix, perm []int32) {
	t = &Matrix{Rows: a.Cols, Cols: a.Rows, RowPtr: make([]int, a.Cols+1)}
	for _, j := range a.Col {
		t.RowPtr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	fill := append([]int(nil), t.RowPtr[:a.Cols]...)
	t.Col = make([]int32, len(a.Col))
	t.Val = make([]float64, len(a.Col))
	perm = make([]int32, len(a.Col))
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.Col[p]
			perm[p] = int32(fill[j])
			t.Col[fill[j]] = int32(i)
			t.Val[fill[j]] = a.Val[p]
			fill[j]++
		}
	}
	return t, perm
}

// TestTransposeFewerBlocksOnWideMatrices reaches the transpose's cap on
// its counting blocks (at most 1 + 4*nnz/(cols+1)), which wide matrices
// hit: TransposeWith and PlanTranspose's permutation must match the
// serial counting sort bit for bit at 1, 2 and 8 workers.
func TestTransposeFewerBlocksOnWideMatrices(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, maxNB int
	}{
		{rows: 2048, cols: 12000, maxNB: 1},
		{rows: 4096, cols: 8000, maxNB: 2},
	} {
		// One or two entries per row; every 64th row also hits column
		// 0, so blocks share output rows.
		a := &Matrix{Rows: tc.rows, Cols: tc.cols, RowPtr: make([]int, tc.rows+1)}
		rng := rand.New(rand.NewSource(int64(tc.rows)))
		for i := 0; i < tc.rows; i++ {
			if i%64 == 0 {
				a.Col = append(a.Col, 0)
				a.Val = append(a.Val, rng.NormFloat64())
			}
			if i%3 != 0 {
				a.Col = append(a.Col, int32(1+rng.Intn(tc.cols-1)))
				a.Val = append(a.Val, rng.NormFloat64())
			}
			a.RowPtr[i+1] = len(a.Col)
		}
		if got := 1 + 4*a.NNZ()/(tc.cols+1); got != tc.maxNB {
			t.Fatalf("%dx%d: block cap %d, want %d", tc.rows, tc.cols, got, tc.maxNB)
		}
		if nb := len(par.New(8).Blocks(tc.rows)) - 1; nb <= tc.maxNB {
			t.Fatalf("%dx%d: 8 workers give %d blocks, not above the cap %d", tc.rows, tc.cols, nb, tc.maxNB)
		}
		want, wantPerm := refTranspose(a)
		for _, w := range planWorkerCounts {
			rt := par.New(w)
			label := fmt.Sprintf("%dx%d, %d workers", tc.rows, tc.cols, w)
			matricesEqual(t, label+": TransposeWith", a.TransposeWith(rt), want)
			pl := PlanTranspose(rt, a)
			if !slices.Equal(pl.perm, wantPerm) {
				t.Fatalf("%s: PlanTranspose perm differs from the counting sort", label)
			}
			tr := pl.NewMatrix()
			if err := pl.Replay(rt, a, tr); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, label+": transpose replay", tr, want)
		}
	}
}

// aggregateP0 builds a tentative-prolongator-shaped matrix: one entry
// per row, rows sorted trivially.
func aggregateP0(n, nagg int) *Matrix {
	p := &Matrix{Rows: n, Cols: nagg}
	p.RowPtr = make([]int, n+1)
	p.Col = make([]int32, n)
	p.Val = make([]float64, n)
	for i := 0; i < n; i++ {
		p.RowPtr[i+1] = i + 1
		p.Col[i] = int32(i % nagg)
		p.Val[i] = 1 + float64(i%5)/7
	}
	return p
}

func TestSmoothPlanMatchesSmoothProlongator(t *testing.T) {
	a := randomMatrix(150, 150, 0.04, 6)
	p0 := aggregateP0(150, 31)
	dinv := make([]float64, a.Rows)
	for i := range dinv {
		dinv[i] = 1 / (1 + float64(i%9))
	}
	const omega = 0.61
	// The second operand set is large enough that the plan's row loop
	// splits at 2 and 8 workers.
	big := randomMatrix(2400, 2400, 0.0025, 41)
	bigP0 := aggregateP0(2400, 1100)
	bigDinv := make([]float64, big.Rows)
	for i := range bigDinv {
		bigDinv[i] = 1 / (2 + float64(i%7))
	}
	for _, in := range []struct {
		a, p0 *Matrix
		dinv  []float64
	}{{a, p0, dinv}, {big, bigP0, bigDinv}} {
		for _, w := range planWorkerCounts {
			rt := par.New(w)
			pl, err := PlanSmoothProlongator(rt, in.a, in.p0)
			if err != nil {
				t.Fatal(err)
			}
			out := pl.NewMatrix()
			for _, av := range []*Matrix{in.a, perturb(in.a, 2)} {
				if err := pl.Replay(rt, av, in.p0, in.dinv, omega, out); err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, fmt.Sprintf("smooth replay %d rows@%d", in.a.Rows, w), out, refSmooth(av, in.p0, in.dinv, omega))
			}
		}
	}
}

func TestRAPPlanMatchesRAP(t *testing.T) {
	a := randomMatrix(140, 140, 0.04, 20)
	p := aggregateP0(140, 29)
	for _, w := range planWorkerCounts {
		rt := par.New(w)
		r := p.TransposeWith(rt)
		pl, err := PlanRAP(rt, r, a, p)
		if err != nil {
			t.Fatal(err)
		}
		out := pl.NewMatrix()
		for _, av := range []*Matrix{a, perturb(a, 4)} {
			if err := pl.Replay(rt, r, av, p, out); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, "RAP replay", out, refRAP(r, av, p))
		}
	}
}

func TestPlanReplayDeterministicAcrossWorkers(t *testing.T) {
	a := randomMatrix(200, 200, 0.03, 30)
	b := randomMatrix(200, 60, 0.05, 31)
	pl, err := PlanMultiply(par.New(1), a, b)
	if err != nil {
		t.Fatal(err)
	}
	ref := pl.NewMatrix()
	if err := pl.Replay(par.New(1), a, b, ref); err != nil {
		t.Fatal(err)
	}
	for _, w := range planWorkerCounts[1:] {
		c := pl.NewMatrix()
		if err := pl.Replay(par.New(w), a, b, c); err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, "cross-worker product replay", c, ref)
	}
}

// TestRAPPlanReplayAcrossWorkers replays RAP plans built at one worker
// count at others, three value sets in turn, and checks every replay
// bitwise against the serial reference. The operands are large enough that
// the fine and coarse row loops both split at 2 and 8 workers.
func TestRAPPlanReplayAcrossWorkers(t *testing.T) {
	a := randomMatrix(2400, 2400, 0.0025, 40)
	p := aggregateP0(2400, 1100)
	r := p.TransposeWith(par.New(1))
	values := []*Matrix{a, perturb(a, 6), perturb(a, 7)}
	for _, tc := range []struct {
		plan    int
		replays []int
	}{
		{plan: 8, replays: []int{1, 2, 1}},
		{plan: 8, replays: []int{2, 1, 2}},
		{plan: 1, replays: []int{8, 2, 8}},
		{plan: 2, replays: []int{8, 8, 1}},
	} {
		pl, err := PlanRAP(par.New(tc.plan), r, a, p)
		if err != nil {
			t.Fatal(err)
		}
		out := pl.NewMatrix()
		for pass, w := range tc.replays {
			rt := par.New(w)
			if err := pl.Replay(rt, r, values[pass], p, out); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, fmt.Sprintf("plan@%d replay %d@%d", tc.plan, pass+1, w), out, refRAP(r, values[pass], p))
		}
	}
}

// TestProductPlanConcurrentReplayBitwise replays one fresh product plan
// and one fresh smooth plan from two goroutines at once, each into its
// own result. Plans are immutable after planning, so every replay must
// match the serial reference bitwise, and the race detector (make check)
// must see no write to shared plan state.
func TestProductPlanConcurrentReplayBitwise(t *testing.T) {
	a := randomMatrix(2400, 2400, 0.0025, 50)
	p0 := aggregateP0(2400, 1100)
	dinv := make([]float64, a.Rows)
	for i := range dinv {
		dinv[i] = 1 / (2 + float64(i%7))
	}
	const omega = 0.61
	rt := par.New(2)
	pp, err := PlanMultiply(rt, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := PlanSmoothProlongator(rt, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	values := []*Matrix{a, perturb(a, 8), perturb(a, 9)}
	wantC := make([]*Matrix, len(values))
	wantP := make([]*Matrix, len(values))
	for k, av := range values {
		wantC[k] = refMultiply(av, p0)
		wantP[k] = refSmooth(av, p0, dinv, omega)
	}
	// start releases both goroutines at once, so their first replays,
	// the ones a mutable plan would race on, overlap.
	start, errs := make(chan struct{}), make(chan error, 2)
	for g, w := range []int{2, 8} {
		go func() {
			rt := par.New(w)
			c, out := pp.NewMatrix(), sp.NewMatrix()
			<-start
			for pass := range values {
				k := (g + pass) % len(values)
				if err := pp.Replay(rt, values[k], p0, c); err != nil {
					errs <- err
					return
				}
				if err := sp.Replay(rt, values[k], p0, dinv, omega, out); err != nil {
					errs <- err
					return
				}
				for _, d := range []error{diffMatrices(c, wantC[k]), diffMatrices(out, wantP[k])} {
					if d != nil {
						errs <- fmt.Errorf("goroutine %d pass %d@%d: %w", g, pass+1, w, d)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	close(start)
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// dropLastEntry returns a copy of m without the last stored entry of its
// last non-empty row: the same shape, one entry fewer.
func dropLastEntry(m *Matrix) *Matrix {
	c := m.Clone()
	n := len(c.Col) - 1
	c.Col, c.Val = c.Col[:n], c.Val[:n]
	for i := range c.RowPtr {
		c.RowPtr[i] = min(c.RowPtr[i], n)
	}
	return c
}

// addOneEntry returns a copy of m with one more stored entry: row 0 gains
// the smallest column it does not store, its row kept sorted.
func addOneEntry(m *Matrix) *Matrix {
	row := m.Col[m.RowPtr[0]:m.RowPtr[1]]
	j, at := int32(0), 0
	for at < len(row) && row[at] == j {
		j++
		at++
	}
	c := &Matrix{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, len(m.RowPtr))}
	c.Col = append(append(append([]int32{}, m.Col[:at]...), j), m.Col[at:]...)
	c.Val = append(append(append([]float64{}, m.Val[:at]...), 1), m.Val[at:]...)
	for i := range c.RowPtr {
		c.RowPtr[i] = m.RowPtr[i] + min(i, 1)
	}
	return c
}

// TestPlanReplayRejectsStoredEntryMismatch: a replay operand with the
// planned shape but one stored entry fewer or one extra returns an
// error, for A and B of a product plan, R, A and P of a RAP plan, and A
// and P0 of a smooth plan.
func TestPlanReplayRejectsStoredEntryMismatch(t *testing.T) {
	rt := par.New(1)
	a := randomMatrix(60, 60, 0.08, 12)
	p0 := aggregateP0(60, 17)
	r := p0.Transpose()
	dinv := make([]float64, a.Rows)
	for i := range dinv {
		dinv[i] = 0.5
	}
	pp, err := PlanMultiply(rt, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := PlanSmoothProlongator(rt, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := PlanRAP(rt, r, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	c, out, coarse := pp.NewMatrix(), sp.NewMatrix(), rp.NewMatrix()
	for _, edit := range []struct {
		name string
		f    func(*Matrix) *Matrix
	}{{"one entry fewer", dropLastEntry}, {"one extra entry", addOneEntry}} {
		a2, p2, r2 := edit.f(a), edit.f(p0), edit.f(r)
		for _, m := range []*Matrix{a2, p2, r2} {
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: edited operand invalid: %v", edit.name, err)
			}
		}
		for label, err := range map[string]error{
			"product A": pp.Replay(rt, a2, p0, c),
			"product B": pp.Replay(rt, a, p2, c),
			"smooth A":  sp.Replay(rt, a2, p0, dinv, 0.5, out),
			"smooth P0": sp.Replay(rt, a, p2, dinv, 0.5, out),
			"RAP R":     rp.Replay(rt, r2, a, p0, coarse),
			"RAP A":     rp.Replay(rt, r, a2, p0, coarse),
			"RAP P":     rp.Replay(rt, r, a, p2, coarse),
		} {
			if err == nil {
				t.Errorf("%s: %s replay not rejected", edit.name, label)
			}
		}
	}
}

// TestPlanReplayAllocsTwoWorkers gates steady-state replay allocations
// at 2 workers on operands of 2048 and 1024 rows, so every value pass
// runs in parallel. Each block borrows its accumulator from a pooled
// arena, so a pass pays only for the closure it hands the pool: at most
// one object per product or smooth replay, two per RAP replay.
func TestPlanReplayAllocsTwoWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector bypasses sync.Pool arena recycling, charging spurious allocations")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs: a pool helper that cannot run beside the caller keeps each task from being recycled")
	}
	rt := par.New(2)
	a := randomMatrix(2048, 2048, 0.003, 31)
	p0 := aggregateP0(2048, 1024)
	r := p0.TransposeWith(rt)
	dinv := make([]float64, a.Rows)
	for i := range dinv {
		dinv[i] = 0.5
	}
	pp, err := PlanMultiply(rt, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := PlanSmoothProlongator(rt, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := PlanRAP(rt, r, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	c, out, coarse := pp.NewMatrix(), sp.NewMatrix(), rp.NewMatrix()
	for _, tc := range []struct {
		name   string
		limit  uint64
		replay func() error
	}{
		{"ProductPlan", 1, func() error { return pp.Replay(rt, a, p0, c) }},
		{"SmoothPlan", 1, func() error { return sp.Replay(rt, a, p0, dinv, 2.0/3.0, out) }},
		{"RAPPlan", 2, func() error { return rp.Replay(rt, r, a, p0, coarse) }},
	} {
		// Warm-up replays fill the pooled arenas with accumulators.
		for i := 0; i < 2; i++ {
			if err := tc.replay(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := parallelAllocs(func() {
			if err := tc.replay(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.limit {
			t.Errorf("%s.Replay at 2 workers: %d allocs/op, want <= %d", tc.name, allocs, tc.limit)
		}
	}
}

// parallelAllocs reports the allocations per call of f at GOMAXPROCS 2:
// the best of three 20-call measurements. testing.AllocsPerRun pins
// GOMAXPROCS to 1, where a pool helper runs only after the caller has
// finished every block; its queued token keeps the task from being
// recycled, so the next dispatch allocates a fresh one. A helper that
// the machine's load delays does the same at GOMAXPROCS 2. Scheduling
// only ever adds allocations, so the best measurement is f's own.
func parallelAllocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const runs = 20
	best := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		best = min(best, (ms.Mallocs-before)/runs)
	}
	return best
}
