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

// noBatchPrec wraps Jacobi while hiding its BatchPreconditioner fast
// path, forcing CGBatch through the de-interleaving fallback.
type noBatchPrec struct{ m Preconditioner }

func (p noBatchPrec) Precondition(r, z []float64) { p.m.Precondition(r, z) }

func TestCGBatchSolvesAllColumns(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(8, 8, 8), 1e-2)
	n := a.Rows
	m, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	rt := par.New(1)
	for _, k := range []int{1, 4, 8, 5} {
		b := make([]float64, n*k)
		x := make([]float64, n*k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				b[i*k+j] = float64((i*13+j*7)%17) - 8
			}
		}
		stats, err := CGBatchCtx(nil, rt, a, b, x, k, Options{Tol: 1e-10, MaxIter: 500, M: m})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(stats) != k {
			t.Fatalf("k=%d: %d stats", k, len(stats))
		}
		// Verify each column's true residual independently.
		xc := make([]float64, n)
		bc := make([]float64, n)
		ax := make([]float64, n)
		for j := 0; j < k; j++ {
			if !stats[j].Converged {
				t.Fatalf("k=%d column %d not converged: %+v", k, j, stats[j])
			}
			for i := 0; i < n; i++ {
				xc[i] = x[i*k+j]
				bc[i] = b[i*k+j]
			}
			a.SpMV(rt, xc, ax)
			rr, bb := 0.0, 0.0
			for i := 0; i < n; i++ {
				d := bc[i] - ax[i]
				rr += d * d
				bb += bc[i] * bc[i]
			}
			if rel := math.Sqrt(rr / bb); rel > 1e-9 {
				t.Fatalf("k=%d column %d: true relres %g", k, j, rel)
			}
		}
	}
}

// TestCGBatchGenericPreconditionerPath exercises the column-by-column
// de-interleaving fallback for preconditioners without a batch kernel
// and checks it agrees bitwise with the batch fast path (both apply the
// same per-column operator; only the application route differs).
func TestCGBatchGenericPreconditionerPath(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(6, 6, 6), 1e-2)
	n := a.Rows
	m, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	rt := par.New(1)
	const k = 4
	b := make([]float64, n*k)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	xBatch := make([]float64, n*k)
	if _, err := CGBatchCtx(nil, rt, a, b, xBatch, k, Options{Tol: 1e-10, MaxIter: 500, M: m}); err != nil {
		t.Fatal(err)
	}
	xGeneric := make([]float64, n*k)
	if _, err := CGBatchCtx(nil, rt, a, b, xGeneric, k, Options{Tol: 1e-10, MaxIter: 500, M: noBatchPrec{m}}); err != nil {
		t.Fatal(err)
	}
	for i := range xBatch {
		if math.Float64bits(xBatch[i]) != math.Float64bits(xGeneric[i]) {
			t.Fatalf("x[%d] differs between batch and generic preconditioner path", i)
		}
	}
}

// TestCGBatchWorkspaceReuse reuses one workspace across batch solves of
// different sizes and widths, requiring bitwise identity with fresh
// workspaces, then checks steady-state batch solves allocate nothing.
func TestCGBatchWorkspaceReuse(t *testing.T) {
	rt := par.New(1)
	big := gen.Laplacian(gen.Laplace3D(8, 8, 8), 1e-2)
	small := gen.Laplacian(gen.Laplace3D(4, 4, 4), 1e-2)
	ws := &Workspace{}

	run := func(a *sparse.Matrix, k int, ws *Workspace) []float64 {
		n := a.Rows
		b := make([]float64, n*k)
		x := make([]float64, n*k)
		for i := range b {
			b[i] = float64(i%9) - 4
		}
		if _, err := CGBatchCtx(nil, rt, a, b, x, k, Options{Tol: 1e-10, MaxIter: 500, Work: ws}); err != nil {
			t.Fatal(err)
		}
		return x
	}

	_ = run(big, 8, ws)
	got := run(small, 4, ws)
	want := run(small, 4, &Workspace{})
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] differs bitwise after workspace reuse", i)
		}
	}

	// Steady state allocates nothing (stats live in the workspace).
	n := small.Rows
	const k = 4
	b := make([]float64, n*k)
	x := make([]float64, n*k)
	for i := range b {
		b[i] = float64(i%9) - 4
	}
	if _, err := CGBatchCtx(nil, rt, small, b, x, k, Options{Tol: 1e-10, MaxIter: 500, Work: ws}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i := range x {
			x[i] = 0
		}
		if _, err := CGBatchCtx(nil, rt, small, b, x, k, Options{Tol: 1e-10, MaxIter: 500, Work: ws}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("CGBatchCtx steady state: %v allocs/op, want 0", allocs)
	}
}

func TestCGBatchRejectsBadShapes(t *testing.T) {
	a := gen.Laplacian(gen.Laplace2D(4, 4), 1e-2)
	rt := par.New(1)
	if _, err := CGBatchCtx(nil, rt, a, make([]float64, a.Rows), make([]float64, a.Rows), 0, Options{Tol: 1e-10, MaxIter: 10}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := CGBatchCtx(nil, rt, a, make([]float64, a.Rows), make([]float64, 2*a.Rows), 2, Options{Tol: 1e-10, MaxIter: 10}); err == nil {
		t.Fatal("short b accepted")
	}
	_, err := GMRESCtx(nil, rt, a, make([]float64, a.Rows), make([]float64, 3), 5, Options{Tol: 1e-10, MaxIter: 10})
	if want := fmt.Sprintf("(n=%d, len(b)=%d, len(x)=3)", a.Rows, a.Rows); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("GMRES short x: got %v, want an error naming %s", err, want)
	}
}
