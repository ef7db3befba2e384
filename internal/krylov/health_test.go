package krylov

import (
	"errors"
	"math"
	"testing"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/par"
)

// TestHealthCheckClassifiesDivergence drives the guard state machine
// directly with a synthetic residual history: a spike shorter than the
// window is tolerated, a sustained blow-up past the factor is ErrDiverged.
func TestHealthCheckClassifiesDivergence(t *testing.T) {
	h := &Health{DivergeFactor: 100, DivergeWindow: 3}
	g := guardInit()
	// Healthy descent establishes best = 1e-3.
	for i, rel := range []float64{1, 1e-1, 1e-2, 1e-3} {
		if err := h.check(&g, "CG", i, rel); err != nil {
			t.Fatalf("healthy descent tripped at %d: %v", i, err)
		}
	}
	// Two over-factor iterations, then recovery: the window resets.
	for i, rel := range []float64{1, 1, 1e-3} {
		if err := h.check(&g, "CG", 4+i, rel); err != nil {
			t.Fatalf("sub-window spike tripped at %d: %v", i, err)
		}
	}
	// Three consecutive over-factor iterations trip the guard.
	var err error
	for i := 0; i < 3 && err == nil; i++ {
		err = h.check(&g, "CG", 7+i, 10)
	}
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("want ErrDiverged, got %v", err)
	}
}

func TestHealthCheckClassifiesStagnation(t *testing.T) {
	h := &Health{StagnationWindow: 4, StagnationRel: 1e-2}
	g := guardInit()
	if err := h.check(&g, "CG", 0, 1.0); err != nil {
		t.Fatal(err)
	}
	// Sub-threshold "progress" counts as stagnation.
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		err = h.check(&g, "CG", 1+i, 0.999)
	}
	if !errors.Is(err, ErrStagnated) {
		t.Fatalf("want ErrStagnated, got %v", err)
	}
	// Real progress resets the counter.
	g = guardInit()
	rel := 1.0
	for i := 0; i < 40; i++ {
		rel *= 0.9
		if err := h.check(&g, "CG", i, rel); err != nil {
			t.Fatalf("steady progress tripped at %d: %v", i, err)
		}
	}
}

func TestHealthCheckClassifiesNonFinite(t *testing.T) {
	h := DefaultHealth()
	for _, rel := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := guardInit()
		if err := h.check(&g, "CG", 0, rel); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("rel %v: want ErrNonFinite, got %v", rel, err)
		}
	}
}

// TestHealthCGNaNRHS: a NaN right-hand side poisons every residual
// norm. The guard classifies it at iteration 0; the unguarded solver
// burns the whole iteration budget before reporting ErrNotConverged.
func TestHealthCGNaNRHS(t *testing.T) {
	a, b, _ := spdProblem(10, 10)
	b[3] = math.NaN()
	x := make([]float64, a.Rows)
	st, err := CGCtx(nil, par.New(2), a, b, x, Options{Tol: 1e-10, MaxIter: 500, Health: DefaultHealth()})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("want ErrNonFinite, got %v", err)
	}
	if st.Iterations != 0 {
		t.Fatalf("guard should trip before the first iteration, ran %d", st.Iterations)
	}
	if _, err := CGCtx(nil, par.New(2), a, b, x, Options{Tol: 1e-10, MaxIter: 500}); !errors.Is(err, ErrNotConverged) {
		t.Fatalf("unguarded NaN solve: want ErrNotConverged, got %v", err)
	}
}

// TestHealthCGStagnationOnNearSingular: on the nearly singular Neumann
// Laplacian the attainable residual floors far above the requested
// tolerance. The guard converts the stall into ErrStagnated long
// before the iteration budget is gone.
func TestHealthCGStagnationOnNearSingular(t *testing.T) {
	g := gen.Laplace2D(20, 20)
	a := gen.Laplacian(g, 1e-9)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.37 * float64(i))
	}
	x := make([]float64, n)
	hg := &Health{StagnationWindow: 30}
	st, err := CGCtx(nil, par.New(2), a, b, x, Options{Tol: 1e-14, MaxIter: 5000, Health: hg})
	if !errors.Is(err, ErrStagnated) {
		t.Fatalf("want ErrStagnated, got %v (stats %+v)", err, st)
	}
	if st.Iterations >= 5000 {
		t.Fatalf("guard did not save the iteration budget: %d iterations", st.Iterations)
	}
}

func TestHealthCGBreakdownClassified(t *testing.T) {
	a := identityMatrix(10)
	a.Scale(-1)
	b := make([]float64, 10)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 10)
	if _, err := CGCtx(nil, par.New(1), a, b, x, Options{Tol: 1e-8, MaxIter: 50}); !errors.Is(err, ErrBreakdown) {
		t.Fatalf("want ErrBreakdown, got %v", err)
	}
}

func TestHealthGMRESNaNRHS(t *testing.T) {
	a, b, _ := spdProblem(10, 10)
	b[0] = math.NaN()
	x := make([]float64, a.Rows)
	if _, err := GMRESCtx(nil, par.New(2), a, b, x, 30, Options{Tol: 1e-10, MaxIter: 300, Health: DefaultHealth()}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("want ErrNonFinite, got %v", err)
	}
}

// TestHealthGuardBitwiseIdentical: the guard reads only residual norms
// the convergence test already computes, so a guarded healthy solve is
// bitwise identical to the unguarded one at every worker count.
func TestHealthGuardBitwiseIdentical(t *testing.T) {
	a, b, _ := spdProblem(20, 20)
	ref := make([]float64, a.Rows)
	stRef, err := CGCtx(nil, par.New(1), a, b, ref, Options{Tol: 1e-10, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 8} {
		x := make([]float64, a.Rows)
		st, err := CGCtx(nil, par.New(threads), a, b, x, Options{Tol: 1e-10, MaxIter: 2000, Health: DefaultHealth()})
		if err != nil {
			t.Fatalf("threads %d: %v", threads, err)
		}
		if st.Iterations != stRef.Iterations {
			t.Fatalf("threads %d: %d iterations, want %d", threads, st.Iterations, stRef.Iterations)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("threads %d: x[%d] = %x, want %x", threads, i, math.Float64bits(x[i]), math.Float64bits(ref[i]))
			}
		}
	}
}

// An exactly singular Neumann Laplacian under an AMG preconditioner is
// the canonical false-convergence poison: the CG recurrence residual
// sails below the tolerance while the true residual ||b - Ax||/||b||
// sits at ~55. The always-on false-convergence check must classify the
// solve ErrDiverged instead of reporting a garbage iterate as an
// answer (this exact case previously returned Converged with
// RelResidual 5e9 times the tolerance).
func TestHealthCGFalseConvergenceClassified(t *testing.T) {
	g := gen.Laplace2D(16, 16)
	a := gen.Laplacian(g, 0)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	h, err := amg.Build(a, amg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	st, err := CGCtx(nil, par.New(1), a, b, x, Options{Tol: 1e-8, MaxIter: 500, M: h})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("want ErrDiverged (false convergence), got %v", err)
	}
	if st.Converged {
		t.Fatalf("solve reported converged with true relres %g", st.RelResidual)
	}
	if st.RelResidual < 1 {
		t.Fatalf("expected a catastrophic true residual, got %g", st.RelResidual)
	}
}
