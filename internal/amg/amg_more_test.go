package amg

import (
	"math"
	"strings"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
)

func TestMaxLevelsRespected(t *testing.T) {
	a, _ := laplaceProblem(14, 14, 14)
	h, err := Build(a, Options{MaxLevels: 2, MinCoarseSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 2 {
		t.Fatalf("levels = %d, want 2", h.NumLevels())
	}
	// The coarse level is solved directly even though it is large.
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	st, err := krylov.CGCtx(nil, par.New(0), a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 200, M: h})
	if err != nil || !st.Converged {
		t.Fatalf("2-level AMG failed: %v %+v", err, st)
	}
}

func TestVCycleIterationCountGridIndependentish(t *testing.T) {
	// The AMG selling point: iteration counts grow slowly with problem
	// size (unlike plain CG's sqrt(kappa) growth).
	iters := func(side int) int {
		g := gen.Laplace3D(side, side, side)
		a := gen.DirichletLaplacian(g, 6)
		h, err := Build(a, Options{MinCoarseSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = math.Sin(0.01 * float64(i))
		}
		x := make([]float64, a.Rows)
		st, err := krylov.CGCtx(nil, par.New(0), a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 500, M: h})
		if err != nil {
			t.Fatal(err)
		}
		return st.Iterations
	}
	small, big := iters(8), iters(20)
	if big > 3*small+5 {
		t.Fatalf("iterations grew %d -> %d; not grid independent", small, big)
	}
}

func TestElasticityProblem(t *testing.T) {
	// Multi-dof FEM-structured matrix exercises block aggregation.
	g := gen.Elasticity3D(5, 5, 5, 3)
	a := gen.DirichletLaplacian(g, float64(g.MaxDegree()+1))
	h, err := Build(a, Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x := make([]float64, a.Rows)
	st, err := krylov.CGCtx(nil, par.New(0), a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 500, M: h})
	if err != nil || !st.Converged {
		t.Fatalf("elasticity AMG failed: %v %+v", err, st)
	}
}

func TestPreconditionIsLinearish(t *testing.T) {
	// One V-cycle from zero guess is a fixed linear operator:
	// M(alpha r) = alpha M(r).
	a, _ := laplaceProblem(8, 8, 8)
	h, err := Build(a, Options{MinCoarseSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	r := make([]float64, n)
	for i := range r {
		r[i] = math.Cos(0.1 * float64(i))
	}
	z1 := make([]float64, n)
	h.Precondition(r, z1)
	r2 := make([]float64, n)
	for i := range r2 {
		r2[i] = 3 * r[i]
	}
	z2 := make([]float64, n)
	h.Precondition(r2, z2)
	for i := range z1 {
		if math.Abs(z2[i]-3*z1[i]) > 1e-10*(1+math.Abs(z1[i])) {
			t.Fatalf("V-cycle not linear at %d: %g vs %g", i, z2[i], 3*z1[i])
		}
	}
}

func TestSpectralRadiusEstimateSane(t *testing.T) {
	// For the 7-point Dirichlet Laplacian, rho(D^{-1}A) is close to 2.
	g := gen.Laplace3D(10, 10, 10)
	a := gen.DirichletLaplacian(g, 6)
	dinv := make([]float64, a.Rows)
	for i, d := range a.Diagonal() {
		dinv[i] = 1 / d
	}
	rho := estimateSpectralRadius(par.New(0), a, dinv, 30, make([]float64, a.Rows), make([]float64, a.Rows))
	if rho < 1.2 || rho > 2.2 {
		t.Fatalf("rho estimate %f outside (1.2, 2.2)", rho)
	}
}

func TestSolveStationaryConverges(t *testing.T) {
	a, b := laplaceProblem(9, 9, 9)
	h, err := Build(a, Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	iters, rel := stationary(h, b, x, 1e-8, 100)
	if rel >= 1e-8 {
		t.Fatalf("stationary V-cycles stalled: rel %g after %d", rel, iters)
	}
}

func TestSGSSmoothers(t *testing.T) {
	a, b := laplaceProblem(10, 10, 10)
	rt := par.New(0)
	itersJacobi := 0
	for _, sm := range []Smoother{SmootherJacobi, SmootherPointSGS} {
		h, err := Build(a, Options{MinCoarseSize: 60, Smoother: sm, PreSweeps: 1, PostSweeps: 1})
		if err != nil {
			t.Fatalf("smoother %d: %v", sm, err)
		}
		x := make([]float64, a.Rows)
		st, err := krylov.CGCtx(nil, rt, a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 400, M: h})
		if err != nil || !st.Converged {
			t.Fatalf("smoother %d failed: %v %+v", sm, err, st)
		}
		if sm == SmootherJacobi {
			itersJacobi = st.Iterations
		} else if st.Iterations > itersJacobi+10 {
			// SGS smoothing is at least as strong as 1-sweep Jacobi.
			t.Fatalf("smoother %d iterations %d much worse than Jacobi %d", sm, st.Iterations, itersJacobi)
		}
	}
}

func TestSGSSmootherDeterministic(t *testing.T) {
	a, b := laplaceProblem(8, 8, 8)
	run := func(threads int) []float64 {
		h, err := Build(a, Options{MinCoarseSize: 50, Smoother: SmootherPointSGS, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		z := make([]float64, a.Rows)
		h.Precondition(b, z)
		return z
	}
	z1 := run(1)
	for _, w := range []int{2, 8} {
		zw := run(w)
		for i := range z1 {
			if z1[i] != zw[i] {
				t.Fatalf("point SGS smoothing at %d workers differs from 1 worker at %d", w, i)
			}
		}
	}
}

// TestUnknownSmootherRejected: setup accepts exactly SmootherJacobi and
// SmootherPointSGS; any other value (including the numbers the removed
// Chebyshev and cluster-SGS smoothers had) is an error, never a silent
// fallback to Jacobi.
func TestUnknownSmootherRejected(t *testing.T) {
	a, _ := laplaceProblem(6, 6, 6)
	for _, sm := range []Smoother{-1, 1, SmootherPointSGS + 1, 99} {
		if _, err := Build(a, Options{Smoother: sm}); err == nil || !strings.Contains(err.Error(), "unknown smoother") {
			t.Errorf("Smoother(%d): err = %v, want an unknown-smoother error", sm, err)
		}
	}
}

func TestOperatorComplexityMonotoneInDepth(t *testing.T) {
	a, _ := laplaceProblem(12, 12, 12)
	h2, err := Build(a, Options{MaxLevels: 2, MinCoarseSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	h4, err := Build(a, Options{MaxLevels: 6, MinCoarseSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if h4.OperatorComplexity() < h2.OperatorComplexity() {
		t.Fatalf("complexity decreased with depth: %.3f vs %.3f",
			h4.OperatorComplexity(), h2.OperatorComplexity())
	}
	if h2.OperatorComplexity() < 1 {
		t.Fatal("complexity below 1")
	}
}
