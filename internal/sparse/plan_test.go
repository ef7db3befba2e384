package sparse

import (
	"fmt"
	"math"
	"testing"

	"mis2go/internal/par"
)

// matricesEqual reports bitwise equality of pattern and values.
func matricesEqual(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d]=%d, want %d", label, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	if len(got.Col) != len(want.Col) {
		t.Fatalf("%s: nnz %d, want %d", label, len(got.Col), len(want.Col))
	}
	for p := range want.Col {
		if got.Col[p] != want.Col[p] {
			t.Fatalf("%s: Col[%d]=%d, want %d", label, p, got.Col[p], want.Col[p])
		}
		if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
			t.Fatalf("%s: Val[%d]=%v, want %v (not bitwise identical)", label, p, got.Val[p], want.Val[p])
		}
	}
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
			if err := pl.Numeric(rt, av, bv, c); err != nil {
				t.Fatal(err)
			}
			want, err := Multiply(rt, av, bv)
			if err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, "product replay", c, want)
			if err := c.Validate(); err != nil {
				t.Fatalf("replayed product invalid: %v", err)
			}
		}
	}
}

func TestProductPlanRejectsPatternChange(t *testing.T) {
	rt := par.New(1)
	a := randomMatrix(40, 30, 0.1, 7)
	b := randomMatrix(30, 20, 0.1, 8)
	pl, err := PlanMultiply(rt, a, b)
	if err != nil {
		t.Fatal(err)
	}
	c := pl.NewMatrix()
	a2 := randomMatrix(40, 30, 0.1, 9) // different pattern, same shape
	if err := pl.Numeric(rt, a2, b, c); err == nil {
		t.Fatal("replay with changed A pattern not rejected")
	}
	b2 := randomMatrix(30, 20, 0.1, 10)
	if err := pl.Numeric(rt, a, b2, c); err == nil {
		t.Fatal("replay with changed B pattern not rejected")
	}
	if _, err := PlanMultiply(rt, a, randomMatrix(31, 20, 0.1, 11)); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
}

func TestTransposePlanMatchesTranspose(t *testing.T) {
	a := randomMatrix(80, 130, 0.05, 3)
	for _, w := range planWorkerCounts {
		rt := par.New(w)
		pl := PlanTranspose(rt, a)
		tr := pl.NewMatrix()
		for _, av := range []*Matrix{a, perturb(a, 1)} {
			if err := pl.Numeric(rt, av, tr); err != nil {
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
	if err := pl8.Numeric(par.New(1), a, tr8); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, "cross-worker transpose replay", tr8, a.Transpose())
	if err := pl8.Numeric(rt8, randomMatrix(80, 130, 0.05, 4), tr8); err == nil {
		t.Fatal("transpose replay with changed pattern not rejected")
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
				if err := pl.Numeric(rt, av, in.p0, in.dinv, omega, out); err != nil {
					t.Fatal(err)
				}
				want, err := SmoothProlongator(rt, av, in.p0, in.dinv, omega)
				if err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, fmt.Sprintf("smooth replay %d rows@%d", in.a.Rows, w), out, want)
			}
		}
	}
	rt := par.New(1)
	pl, err := PlanSmoothProlongator(rt, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	out := pl.NewMatrix()
	if err := pl.Numeric(rt, randomMatrix(150, 150, 0.04, 12), p0, dinv, omega, out); err == nil {
		t.Fatal("smooth replay with changed A pattern not rejected")
	}
	if err := pl.Numeric(rt, a, p0, dinv[:10], omega, out); err == nil {
		t.Fatal("short dinv not rejected")
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
			if err := pl.Numeric(rt, r, av, p, out); err != nil {
				t.Fatal(err)
			}
			want, err := RAP(rt, r, av, p)
			if err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, "RAP replay", out, want)
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
	if err := pl.Numeric(par.New(1), a, b, ref); err != nil {
		t.Fatal(err)
	}
	for _, w := range planWorkerCounts[1:] {
		c := pl.NewMatrix()
		if err := pl.Numeric(par.New(w), a, b, c); err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, "cross-worker product replay", c, ref)
	}
}

// hasSchedule reports whether a product plan holds a gather schedule.
func (pl *ProductPlan) hasSchedule() bool { return pl.entryPtr != nil }

// TestRAPPlanLazySchedule pins the plan lifecycle: PlanRAP computes
// patterns only, the first replay runs on mark/acc and builds nothing,
// the second builds both products' gather schedules, and every replay
// is bitwise equal to the one-shot RAP — with plans built at one worker
// count and replayed at others. The operands are large enough that the
// fine and coarse row loops both split at 2 and 8 workers.
func TestRAPPlanLazySchedule(t *testing.T) {
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
		if pl.apPlan.hasSchedule() || pl.rapPlan.hasSchedule() {
			t.Fatalf("plan@%d: PlanRAP built a gather schedule", tc.plan)
		}
		out := pl.NewMatrix()
		for pass, w := range tc.replays {
			rt := par.New(w)
			if err := pl.Replay(rt, r, values[pass], p, out); err != nil {
				t.Fatal(err)
			}
			want, err := RAP(rt, r, values[pass], p)
			if err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, fmt.Sprintf("plan@%d replay %d@%d", tc.plan, pass+1, w), out, want)
			scheduled := pass > 0
			if pl.apPlan.hasSchedule() != scheduled || pl.rapPlan.hasSchedule() != scheduled {
				t.Fatalf("plan@%d after replay %d: schedules A*P=%v R*AP=%v, want %v",
					tc.plan, pass+1, pl.apPlan.hasSchedule(), pl.rapPlan.hasSchedule(), scheduled)
			}
		}
	}
}
