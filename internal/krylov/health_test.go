package krylov

import (
	"errors"
	"math"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// TestHealthCheckClassifiesDivergence drives the guard state machine
// directly with a synthetic residual history: a spike past
// divergeFactor shorter than divergeWindow is tolerated, a sustained
// one is ErrDiverged on exactly its divergeWindow-th iteration.
func TestHealthCheckClassifiesDivergence(t *testing.T) {
	g := guardInit()
	// Healthy descent establishes best = 1e-5.
	iter := 0
	for _, rel := range []float64{1, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
		if err := g.check("CG", iter, rel); err != nil {
			t.Fatalf("healthy descent tripped at %d: %v", iter, err)
		}
		iter++
	}
	// divergeWindow-1 over-factor iterations, then recovery: the
	// window resets. A residual under the factor never counts.
	for i := 0; i < divergeWindow-1; i++ {
		if err := g.check("CG", iter, 1); err != nil {
			t.Fatalf("sub-window spike tripped at %d: %v", iter, err)
		}
		iter++
	}
	for i := 0; i < 2*divergeWindow; i++ {
		if err := g.check("CG", iter, 0.5*divergeFactor*1e-5); err != nil {
			t.Fatalf("residual under the factor tripped at %d: %v", iter, err)
		}
		iter++
	}
	// divergeWindow consecutive over-factor iterations trip the guard
	// on the last one.
	for i := 0; i < divergeWindow; i++ {
		err := g.check("CG", iter, 10)
		if i < divergeWindow-1 && err != nil {
			t.Fatalf("over-factor iteration %d of %d tripped: %v", i+1, divergeWindow, err)
		}
		if i == divergeWindow-1 && !errors.Is(err, ErrDiverged) {
			t.Fatalf("want ErrDiverged after %d over-factor iterations, got %v", divergeWindow, err)
		}
		iter++
	}
}

// TestHealthCheckClassifiesStagnation: improvements smaller than
// stagnationRel count as stagnation and trip the guard on exactly the
// stagnationWindow-th one; steady progress above stagnationRel never
// does.
func TestHealthCheckClassifiesStagnation(t *testing.T) {
	g := guardInit()
	if err := g.check("CG", 0, 1.0); err != nil {
		t.Fatal(err)
	}
	// A single improvement smaller than stagnationRel, then a plateau.
	for i := 1; i <= stagnationWindow; i++ {
		err := g.check("CG", i, 1-stagnationRel/2)
		if i < stagnationWindow && err != nil {
			t.Fatalf("sub-threshold progress tripped at %d: %v", i, err)
		}
		if i == stagnationWindow && !errors.Is(err, ErrStagnated) {
			t.Fatalf("want ErrStagnated at %d, got %v", i, err)
		}
	}
	// Real progress resets the counter.
	g = guardInit()
	rel := 1.0
	for i := 0; i < 10*stagnationWindow; i++ {
		rel *= 1 - 2*stagnationRel
		if err := g.check("CG", i, rel); err != nil {
			t.Fatalf("steady progress tripped at %d: %v", i, err)
		}
	}
}

func TestHealthCheckClassifiesNonFinite(t *testing.T) {
	for _, rel := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := guardInit()
		if err := g.check("CG", 0, rel); !errors.Is(err, ErrNonFinite) {
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
	st, err := CGCtx(nil, par.New(2), a, b, x, Options{Tol: 1e-10, MaxIter: 500, Health: true})
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
	g := gen.Laplace2D(32, 32)
	a := gen.Laplacian(g, 1e-9)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.37 * float64(i))
	}
	x := make([]float64, n)
	st, err := CGCtx(nil, par.New(2), a, b, x, Options{Tol: 1e-14, MaxIter: 5000, Health: true})
	if !errors.Is(err, ErrStagnated) {
		t.Fatalf("want ErrStagnated, got %v (stats %+v)", err, st)
	}
	if st.Iterations >= 5000 {
		t.Fatalf("guard did not save the iteration budget: %d iterations", st.Iterations)
	}
}

// TestHealthGMRESStagnation: GMRES on the cyclic shift with b = e1
// makes no progress until the Krylov space spans all n unit vectors,
// so every restart cycle of 20 leaves the residual estimate at exactly
// 1. The guard converts the stall into ErrStagnated after
// stagnationWindow iterations instead of burning the budget.
func TestHealthGMRESStagnation(t *testing.T) {
	const n = 200
	a := &sparse.Matrix{Rows: n, Cols: n, RowPtr: make([]int, n+1), Col: make([]int32, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] = i + 1
		a.Col[i] = int32((i + 1) % n)
		a.Val[i] = 1
	}
	b := make([]float64, n)
	b[0] = 1
	x := make([]float64, n)
	st, err := GMRESCtx(nil, par.New(2), a, b, x, 20, Options{Tol: 1e-8, MaxIter: 1000, Health: true})
	if !errors.Is(err, ErrStagnated) {
		t.Fatalf("want ErrStagnated, got %v (stats %+v)", err, st)
	}
	if st.Iterations != stagnationWindow+1 || st.RelResidual != 1 {
		t.Fatalf("guard tripped at iteration %d with relres %g, want %d and 1", st.Iterations, st.RelResidual, stagnationWindow+1)
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
	if _, err := GMRESCtx(nil, par.New(2), a, b, x, 30, Options{Tol: 1e-10, MaxIter: 300, Health: true}); !errors.Is(err, ErrNonFinite) {
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
		st, err := CGCtx(nil, par.New(threads), a, b, x, Options{Tol: 1e-10, MaxIter: 2000, Health: true})
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

// A Neumann Laplacian shifted by 1e-14 is singular to working
// precision: the CG recurrence residual sails below the tolerance
// while the true residual ||b - Ax||/||b|| stays orders of magnitude
// above it. The always-on false-convergence check must classify the
// solve ErrDiverged instead of reporting a garbage iterate as an
// answer, under Jacobi and with no preconditioner.
func TestHealthCGFalseConvergenceClassified(t *testing.T) {
	a := gen.Laplacian(gen.Laplace2D(16, 16), 1e-14)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	jac, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Preconditioner{jac, nil} {
		x := make([]float64, n)
		st, err := CGCtx(nil, par.New(1), a, b, x, Options{Tol: 1e-8, MaxIter: 3000, M: m})
		if !errors.Is(err, ErrDiverged) {
			t.Fatalf("M %T: want ErrDiverged (false convergence), got %v", m, err)
		}
		if st.Converged {
			t.Fatalf("M %T: solve reported converged with true relres %g", m, st.RelResidual)
		}
		if st.RelResidual < falseConvergenceLimit(1e-8) {
			t.Fatalf("M %T: true relres %g is under the false-convergence limit %g", m, st.RelResidual, falseConvergenceLimit(1e-8))
		}
	}
}
