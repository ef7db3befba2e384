package krylov

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

func spdProblem(nx, ny int) (*sparse.Matrix, []float64, []float64) {
	g := gen.Laplace2D(nx, ny)
	a := gen.Laplacian(g, 0.1)
	n := a.Rows
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(0.1 * float64(i))
	}
	b := make([]float64, n)
	a.SpMV(par.New(1), xTrue, b)
	return a, b, xTrue
}

func TestCGConvergesOnSPD(t *testing.T) {
	a, b, xTrue := spdProblem(20, 20)
	x := make([]float64, a.Rows)
	st, err := CGCtx(nil, par.New(4), a, b, x, Options{Tol: 1e-10, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestCGIterationLimit(t *testing.T) {
	a, b, _ := spdProblem(30, 30)
	x := make([]float64, a.Rows)
	_, err := CGCtx(nil, par.New(2), a, b, x, Options{Tol: 1e-14, MaxIter: 3})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
}

func TestCGSizeMismatch(t *testing.T) {
	a, b, _ := spdProblem(5, 5)
	_, err := CGCtx(nil, par.New(1), a, b, make([]float64, 3), Options{Tol: 1e-8, MaxIter: 10})
	if want := fmt.Sprintf("(n=%d, len(b)=%d, len(x)=3)", a.Rows, a.Rows); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("short x: got %v, want an error naming %s", err, want)
	}
	if _, err := CGCtx(nil, par.New(1), a, b[:4], make([]float64, a.Rows), Options{Tol: 1e-8, MaxIter: 10}); err == nil {
		t.Fatal("short b accepted")
	}
}

// identityMatrix returns the n x n identity matrix.
func identityMatrix(n int) *sparse.Matrix {
	m := &sparse.Matrix{Rows: n, Cols: n, RowPtr: make([]int, n+1), Col: make([]int32, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.Col[i] = int32(i)
		m.Val[i] = 1
	}
	return m
}

func TestCGDetectsIndefinite(t *testing.T) {
	// -I is definitely not SPD.
	a := identityMatrix(10)
	a.Scale(-1)
	b := make([]float64, 10)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 10)
	if _, err := CGCtx(nil, par.New(1), a, b, x, Options{Tol: 1e-8, MaxIter: 50}); err == nil {
		t.Fatal("indefinite matrix not detected")
	}
}

func TestGMRESConvergesOnSPD(t *testing.T) {
	a, b, xTrue := spdProblem(15, 15)
	x := make([]float64, a.Rows)
	st, err := GMRESCtx(nil, par.New(4), a, b, x, 60, Options{Tol: 1e-10, MaxIter: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-5 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestGMRESOnNonsymmetric(t *testing.T) {
	// Upwind-ish convection-diffusion: unsymmetric but well conditioned.
	n := 200
	a := &sparse.Matrix{Rows: n, Cols: n}
	a.RowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		if i > 0 {
			a.Col = append(a.Col, int32(i-1))
			a.Val = append(a.Val, -1.5)
		}
		a.Col = append(a.Col, int32(i))
		a.Val = append(a.Val, 4)
		if i < n-1 {
			a.Col = append(a.Col, int32(i+1))
			a.Val = append(a.Val, -0.5)
		}
		a.RowPtr[i+1] = len(a.Col)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i%7) - 3
	}
	b := make([]float64, n)
	a.SpMV(par.New(1), xTrue, b)
	x := make([]float64, n)
	st, err := GMRESCtx(nil, par.New(2), a, b, x, 50, Options{Tol: 1e-10, MaxIter: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-5 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

type jacobiPrec struct{ dinv []float64 }

func (j jacobiPrec) Precondition(r, z []float64) {
	for i := range z {
		z[i] = j.dinv[i] * r[i]
	}
}

func TestPreconditioningReducesCGIterations(t *testing.T) {
	g := gen.Laplace2D(40, 40)
	a := gen.WeightedLaplacian(g, 0.01, 3)
	n := a.Rows
	// Non-constant RHS: a constant vector is an eigenvector of the
	// constant-row-sum Laplacian and converges in one step.
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.3*float64(i)) + 0.2*float64(i%11)
	}
	plain := make([]float64, n)
	stPlain, err := CGCtx(nil, par.New(4), a, b, plain, Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	d := a.Diagonal()
	dinv := make([]float64, n)
	for i := range d {
		dinv[i] = 1 / d[i]
	}
	pre := make([]float64, n)
	stPre, err := CGCtx(nil, par.New(4), a, b, pre, Options{Tol: 1e-8, MaxIter: 5000, M: jacobiPrec{dinv}})
	if err != nil {
		t.Fatal(err)
	}
	if stPre.Iterations > stPlain.Iterations {
		t.Fatalf("Jacobi preconditioning increased iterations: %d > %d", stPre.Iterations, stPlain.Iterations)
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a, _, _ := spdProblem(5, 5)
	b := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	st, err := GMRESCtx(nil, par.New(1), a, b, x, 20, Options{Tol: 1e-10, MaxIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Fatalf("zero RHS should converge immediately, took %d", st.Iterations)
	}
}

func TestIdentityPreconditioner(t *testing.T) {
	r := []float64{1, 2, 3}
	z := make([]float64, 3)
	identityPrec{}.Precondition(r, z)
	for i := range r {
		if z[i] != r[i] {
			t.Fatal("identity preconditioner must copy")
		}
	}
}

// TestOptionsDefaults pins the zero-value meanings of Options: nil ctx,
// M, Work and Health give bitwise the same solve as
// context.Background(), identityPrec{}, a fresh Workspace and no guard, for
// every solver at 1/2/8 workers. It also pins the CGWith shim to CGCtx.
func TestOptionsDefaults(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(8, 8, 8), 1e-2)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	type solve func(ctx context.Context, rt *par.Runtime, o Options) ([]float64, Stats, error)
	solvers := []struct {
		name string
		run  solve
	}{
		{"CG", func(ctx context.Context, rt *par.Runtime, o Options) ([]float64, Stats, error) {
			x := make([]float64, n)
			st, err := CGCtx(ctx, rt, a, b, x, o)
			return x, st, err
		}},
		{"GMRES", func(ctx context.Context, rt *par.Runtime, o Options) ([]float64, Stats, error) {
			x := make([]float64, n)
			st, err := GMRESCtx(ctx, rt, a, b, x, 20, o)
			return x, st, err
		}},
		{"CGWith", func(_ context.Context, rt *par.Runtime, o Options) ([]float64, Stats, error) {
			x := make([]float64, n)
			st, err := CGWith(rt, a, b, x, o.Tol, o.MaxIter, o.M, o.Work)
			return x, st, err
		}},
	}
	same := func(t *testing.T, what string, x0, x1 []float64, st0, st1 Stats) {
		t.Helper()
		if st0 != st1 {
			t.Fatalf("%s: stats %+v, want %+v", what, st1, st0)
		}
		for i := range x0 {
			if math.Float64bits(x0[i]) != math.Float64bits(x1[i]) {
				t.Fatalf("%s: x[%d] = %x, want %x", what, i, math.Float64bits(x1[i]), math.Float64bits(x0[i]))
			}
		}
	}
	base := Options{Tol: 1e-10, MaxIter: 200}
	for _, s := range solvers {
		for _, w := range []int{1, 2, 8} {
			rt := par.New(w)
			x0, st0, err := s.run(nil, rt, base)
			if err != nil {
				t.Fatalf("%s at %d workers, zero options: %v", s.name, w, err)
			}
			explicit := base
			explicit.M, explicit.Work = identityPrec{}, &Workspace{}
			x1, st1, err := s.run(context.Background(), rt, explicit)
			if err != nil {
				t.Fatalf("%s at %d workers, explicit options: %v", s.name, w, err)
			}
			same(t, s.name+" explicit vs zero options", x0, x1, st0, st1)
			if s.name == "CGWith" {
				xc, stc, err := solvers[0].run(nil, rt, base)
				if err != nil {
					t.Fatal(err)
				}
				same(t, "CGWith vs CGCtx", xc, x0, stc, st0)
			}
		}
	}
}
