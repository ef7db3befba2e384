// Regression tests for the solver edge cases: workspace reuse across
// systems of different sizes, zero right-hand sides, and maxIter = 0.
package krylov

import (
	"math"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/par"
)

// TestWorkspaceReuseAcrossSizes solves a large system and then a
// strictly smaller one through the same workspace and requires bitwise
// identity with a fresh-workspace solve. The small GMRES system is an
// identity matrix with a single-entry right-hand side, which exhausts
// the Krylov subspace after one step (exact lucky breakdown): without
// the exact-size re-slice and lucky-breakdown termination, GMRES reads
// a basis vector the current cycle never wrote — scratch retained from
// the larger solve.
func TestWorkspaceReuseAcrossSizes(t *testing.T) {
	rt := par.New(1)
	// Well-conditioned so short-restart GMRES converges too; its only
	// role is to fill the workspace with larger-system scratch.
	big := gen.Laplacian(gen.Laplace3D(10, 10, 10), 0.5)
	bb := make([]float64, big.Rows)
	for i := range bb {
		bb[i] = float64(i%13) - 6
	}

	t.Run("gmres-lucky-breakdown", func(t *testing.T) {
		small := identityMatrix(10)
		bs := make([]float64, 10)
		bs[0] = 2.0 // power of two: the Arnoldi normalization is exact

		ws := &Workspace{}
		xb := make([]float64, big.Rows)
		if _, err := GMRESCtx(nil, rt, big, bb, xb, 5, Options{Tol: 1e-10, MaxIter: 500, Work: ws}); err != nil {
			t.Fatal(err)
		}
		reused := make([]float64, 10)
		stReused, errReused := GMRESCtx(nil, rt, small, bs, reused, 5, Options{Tol: 0, MaxIter: 20, Work: ws})
		fresh := make([]float64, 10)
		stFresh, errFresh := GMRESCtx(nil, rt, small, bs, fresh, 5, Options{Tol: 0, MaxIter: 20, Work: &Workspace{}})

		if (errReused == nil) != (errFresh == nil) {
			t.Fatalf("error mismatch: reused %v, fresh %v", errReused, errFresh)
		}
		if stReused.Iterations != stFresh.Iterations {
			t.Fatalf("iterations %d, fresh workspace %d", stReused.Iterations, stFresh.Iterations)
		}
		for i := range reused {
			if math.Float64bits(reused[i]) != math.Float64bits(fresh[i]) {
				t.Fatalf("x[%d] differs bitwise: %x (reused) vs %x (fresh)",
					i, math.Float64bits(reused[i]), math.Float64bits(fresh[i]))
			}
		}
		// The exact solution is b itself.
		for i := range reused {
			if reused[i] != bs[i] {
				t.Fatalf("x[%d] = %g, want %g", i, reused[i], bs[i])
			}
		}
	})

	t.Run("cg", func(t *testing.T) {
		small := gen.Laplacian(gen.Laplace3D(4, 4, 4), 1e-2)
		bs := make([]float64, small.Rows)
		for i := range bs {
			bs[i] = float64(i%7) - 3
		}
		ws := &Workspace{}
		xb := make([]float64, big.Rows)
		if _, err := CGCtx(nil, rt, big, bb, xb, Options{Tol: 1e-10, MaxIter: 500, Work: ws}); err != nil {
			t.Fatal(err)
		}
		reused := make([]float64, small.Rows)
		if _, err := CGCtx(nil, rt, small, bs, reused, Options{Tol: 1e-10, MaxIter: 500, Work: ws}); err != nil {
			t.Fatal(err)
		}
		fresh := make([]float64, small.Rows)
		if _, err := CGCtx(nil, rt, small, bs, fresh, Options{Tol: 1e-10, MaxIter: 500, Work: &Workspace{}}); err != nil {
			t.Fatal(err)
		}
		for i := range reused {
			if math.Float64bits(reused[i]) != math.Float64bits(fresh[i]) {
				t.Fatalf("x[%d] differs bitwise: %x vs %x",
					i, math.Float64bits(reused[i]), math.Float64bits(fresh[i]))
			}
		}
	})
}

// TestZeroRHSReturnsZero pins the b = 0 contract: the exact solution
// x = 0 in 0 iterations, for any initial guess and any tolerance —
// instead of iterating a nonzero guess down (CG) or normalizing a zero
// residual into NaN basis vectors (GMRES with tol = 0).
func TestZeroRHSReturnsZero(t *testing.T) {
	rt := par.New(1)
	a := gen.Laplacian(gen.Laplace3D(5, 5, 5), 1e-2)
	n := a.Rows
	zero := make([]float64, n)

	type solve func(x []float64, tol float64) (Stats, error)
	solvers := map[string]solve{
		"cg": func(x []float64, tol float64) (Stats, error) {
			return CGCtx(nil, rt, a, zero, x, Options{Tol: tol, MaxIter: 100})
		},
		"gmres": func(x []float64, tol float64) (Stats, error) {
			return GMRESCtx(nil, rt, a, zero, x, 10, Options{Tol: tol, MaxIter: 100})
		},
	}
	for name, run := range solvers {
		for _, tol := range []float64{1e-10, 0} {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(i%5) - 2 // nonzero initial guess
			}
			st, err := run(x, tol)
			if err != nil {
				t.Fatalf("%s tol=%g: %v", name, tol, err)
			}
			if st.Iterations != 0 || !st.Converged || st.RelResidual != 0 {
				t.Fatalf("%s tol=%g: stats %+v, want 0 iterations, converged, zero residual", name, tol, st)
			}
			for i := range x {
				if x[i] != 0 {
					t.Fatalf("%s tol=%g: x[%d] = %g, want exactly 0", name, tol, i, x[i])
				}
			}
		}
	}
}

// TestMaxIterZeroReportsInitialResidual pins the maxIter = 0 contract:
// the initial residual is reported and x is not touched.
func TestMaxIterZeroReportsInitialResidual(t *testing.T) {
	rt := par.New(1)
	a := gen.Laplacian(gen.Laplace3D(5, 5, 5), 1e-2)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	guess := make([]float64, n)
	for i := range guess {
		guess[i] = float64(i%3) - 1
	}
	// Reference residual ||b - A guess|| / ||b||.
	r := make([]float64, n)
	a.SpMV(rt, guess, r)
	rr := 0.0
	for i := range r {
		d := b[i] - r[i]
		rr += d * d
	}
	wantRel := math.Sqrt(rr) / norm2(b)

	check := func(name string, st Stats, err error, x []float64) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: expected ErrNotConverged for maxIter=0", name)
		}
		if st.Iterations != 0 {
			t.Fatalf("%s: %d iterations, want 0", name, st.Iterations)
		}
		if math.Abs(st.RelResidual-wantRel) > 1e-14*(1+wantRel) {
			t.Fatalf("%s: relres %g, want %g", name, st.RelResidual, wantRel)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(guess[i]) {
				t.Fatalf("%s: x[%d] modified: %g, want %g", name, i, x[i], guess[i])
			}
		}
	}

	x := append([]float64(nil), guess...)
	st, err := CGCtx(nil, rt, a, b, x, Options{Tol: 1e-10, MaxIter: 0})
	check("cg", st, err, x)

	x = append([]float64(nil), guess...)
	st, err = GMRESCtx(nil, rt, a, b, x, 10, Options{Tol: 1e-10, MaxIter: 0})
	check("gmres", st, err, x)

	// Negative maxIter must behave like 0, not clamp the restart into a
	// negative Arnoldi dimension (which used to panic in make).
	x = append([]float64(nil), guess...)
	st, err = GMRESCtx(nil, rt, a, b, x, 10, Options{Tol: 1e-10, MaxIter: -2})
	check("gmres maxIter=-2", st, err, x)
}
