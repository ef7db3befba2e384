package amg

import (
	"math"
	"testing"

	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

func laplaceProblem(nx, ny, nz int) (*sparse.Matrix, []float64) {
	g := gen.Laplace3D(nx, ny, nz)
	a := gen.Laplacian(g, 0.05)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = math.Sin(0.01*float64(i)) + 1
	}
	return a, b
}

// stationary runs V-cycle iterations x += M(b - A x) through
// Precondition until the residual drops below tol*||b|| or maxIter
// cycles, returning the cycle count and the final relative residual.
func stationary(h *Hierarchy, b, x []float64, tol float64, maxIter int) (int, float64) {
	a := h.Levels[0].A
	r := make([]float64, a.Rows)
	z := make([]float64, a.Rows)
	norm := func(v []float64) float64 {
		s := 0.0
		for _, e := range v {
			s += e * e
		}
		return math.Sqrt(s)
	}
	bnorm := norm(b)
	if bnorm == 0 {
		bnorm = 1
	}
	for it := 0; it < maxIter; it++ {
		a.SpMVResidual(h.rt, b, x, r)
		if rel := norm(r) / bnorm; rel < tol {
			return it, rel
		}
		h.Precondition(r, z)
		for i := range x {
			x[i] += z[i]
		}
	}
	a.SpMVResidual(h.rt, b, x, r)
	return maxIter, norm(r) / bnorm
}

func TestBuildHierarchyShape(t *testing.T) {
	a, _ := laplaceProblem(12, 12, 12)
	h, err := Build(a, Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 2 {
		t.Fatalf("levels = %d, want >= 2", h.NumLevels())
	}
	for i := 0; i < h.NumLevels()-1; i++ {
		cur, next := h.Levels[i], h.Levels[i+1]
		if next.A.Rows >= cur.A.Rows {
			t.Fatalf("level %d did not coarsen: %d -> %d", i, cur.A.Rows, next.A.Rows)
		}
		if cur.P.Rows != cur.A.Rows || cur.P.Cols != next.A.Rows {
			t.Fatalf("level %d prolongator shape %dx%d", i, cur.P.Rows, cur.P.Cols)
		}
		if err := next.A.Validate(); err != nil {
			t.Fatalf("level %d coarse operator invalid: %v", i+1, err)
		}
	}
	oc := h.OperatorComplexity()
	if oc < 1 || oc > 3 {
		t.Fatalf("operator complexity %.2f out of healthy range", oc)
	}
}

func TestVCycleSolve(t *testing.T) {
	a, b := laplaceProblem(10, 10, 10)
	h, err := Build(a, Options{MinCoarseSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	iters, rel := stationary(h, b, x, 1e-10, 200)
	if rel >= 1e-10 {
		t.Fatalf("V-cycle iteration stalled: rel=%.3e after %d cycles", rel, iters)
	}
	if iters > 100 {
		t.Fatalf("too many cycles: %d", iters)
	}
}

func TestAMGPreconditionedCG(t *testing.T) {
	a, b := laplaceProblem(14, 14, 14)
	rt := par.New(0)
	h, err := Build(a, Options{MinCoarseSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	st, err := krylov.CGCtx(nil, rt, a, b, x, krylov.Options{Tol: 1e-12, MaxIter: 300, M: h})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("AMG-CG did not converge: %+v", st)
	}
	// AMG should beat unpreconditioned CG on iteration count.
	y := make([]float64, a.Rows)
	stPlain, err := krylov.CGCtx(nil, rt, a, b, y, krylov.Options{Tol: 1e-12, MaxIter: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations >= stPlain.Iterations {
		t.Fatalf("AMG-CG iterations %d >= plain CG %d", st.Iterations, stPlain.Iterations)
	}
}

func TestAggregationSchemesAllWork(t *testing.T) {
	a, b := laplaceProblem(8, 8, 8)
	rt := par.New(0)
	schemes := map[string]AggregateFunc{
		"basic":   func(g *graph.CSR) coarsen.Aggregation { return coarsen.Basic(g, coarsen.Options{}) },
		"mis2agg": func(g *graph.CSR) coarsen.Aggregation { return coarsen.MIS2Aggregation(g, coarsen.Options{}) },
		"serial":  coarsen.SerialGreedy,
		"d2c":     func(g *graph.CSR) coarsen.Aggregation { return coarsen.D2C(g, 0, true) },
	}
	for name, f := range schemes {
		h, err := Build(a, Options{Aggregate: f, MinCoarseSize: 40})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := make([]float64, a.Rows)
		st, err := krylov.CGCtx(nil, rt, a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 500, M: h})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Converged {
			t.Fatalf("%s: not converged %+v", name, st)
		}
	}
}

func TestBuildRejectsBadMatrices(t *testing.T) {
	// Non-square.
	bad := &sparse.Matrix{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}
	if _, err := Build(bad, Options{}); err == nil {
		t.Fatal("non-square accepted")
	}
	// Zero diagonal.
	zd := &sparse.Matrix{Rows: 2, Cols: 2,
		RowPtr: []int{0, 1, 2}, Col: []int32{1, 0}, Val: []float64{1, 1}}
	if _, err := Build(zd, Options{}); err == nil {
		t.Fatal("zero diagonal accepted")
	}
	// Structurally broken.
	broken := &sparse.Matrix{Rows: 2, Cols: 2, RowPtr: []int{0, 1}, Col: []int32{0}, Val: []float64{1}}
	if _, err := Build(broken, Options{}); err == nil {
		t.Fatal("invalid CSR accepted")
	}
}

func TestSmallMatrixSingleLevel(t *testing.T) {
	// A matrix below MinCoarseSize: direct solve only.
	g := gen.Laplace2D(5, 5)
	a := gen.Laplacian(g, 0.5)
	h, err := Build(a, Options{MinCoarseSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 1 {
		t.Fatalf("levels = %d, want 1", h.NumLevels())
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	z := make([]float64, a.Rows)
	h.Precondition(b, z)
	// One "V-cycle" is a direct solve here: residual must be ~0.
	r := make([]float64, a.Rows)
	a.SpMV(par.New(1), z, r)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-10 {
			t.Fatalf("direct coarse solve inaccurate at %d", i)
		}
	}
}

func TestDeterministicHierarchy(t *testing.T) {
	a, _ := laplaceProblem(10, 10, 5)
	h1, err := Build(a, Options{Threads: 1, MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Build(a, Options{Threads: 8, MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if h1.NumLevels() != h2.NumLevels() {
		t.Fatal("level counts differ across thread counts")
	}
	for l := range h1.Levels {
		a1, a2 := h1.Levels[l].A, h2.Levels[l].A
		if a1.Rows != a2.Rows || a1.NNZ() != a2.NNZ() {
			t.Fatalf("level %d operators differ structurally", l)
		}
		for i := range a1.Val {
			if math.Abs(a1.Val[i]-a2.Val[i]) > 1e-13 {
				t.Fatalf("level %d value %d differs", l, i)
			}
		}
	}
}

func TestWeightedProblem(t *testing.T) {
	g := gen.Laplace3D(9, 9, 9)
	a := gen.WeightedLaplacian(g, 0.02, 99)
	h, err := Build(a, Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i % 3)
	}
	x := make([]float64, a.Rows)
	st, err := krylov.CGCtx(nil, par.New(0), a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 400, M: h})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged on weighted problem: %+v", st)
	}
}
