package krylov

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

func TestCGWarmStart(t *testing.T) {
	a, b, xTrue := spdProblem(15, 15)
	// Starting from the exact solution converges immediately.
	x := append([]float64(nil), xTrue...)
	st, err := CGCtx(nil, par.New(2), a, b, x, Options{Tol: 1e-10, MaxIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Fatalf("warm start took %d iterations", st.Iterations)
	}
	// Starting close converges in fewer iterations than from zero.
	near := append([]float64(nil), xTrue...)
	for i := range near {
		near[i] += 1e-6 * math.Sin(float64(i))
	}
	stNear, err := CGCtx(nil, par.New(2), a, b, near, Options{Tol: 1e-10, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, a.Rows)
	stZero, err := CGCtx(nil, par.New(2), a, b, zero, Options{Tol: 1e-10, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if stNear.Iterations > stZero.Iterations {
		t.Fatalf("near start %d iterations > cold start %d", stNear.Iterations, stZero.Iterations)
	}
}

func TestGMRESSmallRestartStillConverges(t *testing.T) {
	a, b, xTrue := spdProblem(12, 12)
	x := make([]float64, a.Rows)
	st, err := GMRESCtx(nil, par.New(2), a, b, x, 5, Options{Tol: 1e-9, MaxIter: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("GMRES(5) failed: %+v", st)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-4 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestGMRESRestartClampedToMaxIter(t *testing.T) {
	a, b, _ := spdProblem(8, 8)
	x := make([]float64, a.Rows)
	// restart > maxIter must not panic or over-run.
	st, _ := GMRESCtx(nil, par.New(1), a, b, x, 500, Options{Tol: 1e-12, MaxIter: 10})
	if st.Iterations > 10 {
		t.Fatalf("exceeded maxIter: %d", st.Iterations)
	}
}

func TestGMRESSizeMismatch(t *testing.T) {
	a, b, _ := spdProblem(4, 4)
	_, err := GMRESCtx(nil, par.New(1), a, b, make([]float64, 2), 5, Options{Tol: 1e-8, MaxIter: 10})
	if want := fmt.Sprintf("(n=%d, len(b)=%d, len(x)=2)", a.Rows, a.Rows); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("short x: got %v, want an error naming %s", err, want)
	}
}

func TestStatsRelResidualAccurate(t *testing.T) {
	a, b, _ := spdProblem(10, 10)
	x := make([]float64, a.Rows)
	st, err := CGCtx(nil, par.New(1), a, b, x, Options{Tol: 1e-10, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the residual and compare with the reported one.
	r := make([]float64, a.Rows)
	a.SpMV(par.New(1), x, r)
	num, den := 0.0, 0.0
	for i := range r {
		d := b[i] - r[i]
		num += d * d
		den += b[i] * b[i]
	}
	rel := math.Sqrt(num) / math.Sqrt(den)
	if math.Abs(rel-st.RelResidual) > 1e-12+1e-6*rel {
		t.Fatalf("reported relres %g, recomputed %g", st.RelResidual, rel)
	}
}

func TestCGOnIllConditionedReportsHonestResidual(t *testing.T) {
	// Nearly singular Neumann Laplacian: attainable accuracy is limited;
	// the solver must not claim a residual it did not achieve.
	g := gen.Laplace2D(20, 20)
	a := gen.Laplacian(g, 1e-9)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.37 * float64(i))
	}
	x := make([]float64, n)
	st, _ := CGCtx(nil, par.New(1), a, b, x, Options{Tol: 1e-14, MaxIter: 3000})
	r := make([]float64, n)
	a.SpMV(par.New(1), x, r)
	num, den := 0.0, 0.0
	for i := range r {
		d := b[i] - r[i]
		num += d * d
		den += b[i] * b[i]
	}
	actual := math.Sqrt(num) / math.Sqrt(den)
	if st.RelResidual < actual/10 {
		t.Fatalf("reported %g but actual %g", st.RelResidual, actual)
	}
}

func TestGMRESWithSPDPreconditionerMatchesCG(t *testing.T) {
	// Sanity: both solvers reach the same solution with Jacobi.
	a, b, xTrue := spdProblem(10, 10)
	d := a.Diagonal()
	dinv := make([]float64, len(d))
	for i := range d {
		dinv[i] = 1 / d[i]
	}
	prec := jacobiPrec{dinv}
	x1 := make([]float64, a.Rows)
	if _, err := CGCtx(nil, par.New(1), a, b, x1, Options{Tol: 1e-11, MaxIter: 3000, M: prec}); err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, a.Rows)
	if _, err := GMRESCtx(nil, par.New(1), a, b, x2, 80, Options{Tol: 1e-11, MaxIter: 3000, M: prec}); err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if math.Abs(x1[i]-xTrue[i]) > 1e-5 || math.Abs(x2[i]-xTrue[i]) > 1e-5 {
			t.Fatalf("solution mismatch at %d", i)
		}
	}
}

func TestZeroMatrixDimension(t *testing.T) {
	a := &sparse.Matrix{Rows: 0, Cols: 0, RowPtr: []int{0}}
	st, err := CGCtx(nil, par.New(1), a, nil, nil, Options{Tol: 1e-8, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Fatal("empty system should converge immediately")
	}
}
