package gs

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

func testProblem(nx, ny int) (*sparse.Matrix, []float64, []float64) {
	g := gen.Laplace2D(nx, ny)
	a := gen.Laplacian(g, 0.2)
	n := a.Rows
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Cos(0.05 * float64(i))
	}
	b := make([]float64, n)
	a.SpMV(par.New(1), xTrue, b)
	return a, b, xTrue
}

func residual(a *sparse.Matrix, b, x []float64) float64 {
	r := make([]float64, a.Rows)
	a.SpMV(par.New(1), x, r)
	s := 0.0
	for i := range r {
		d := b[i] - r[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestSequentialGSConverges(t *testing.T) {
	a, b, _ := testProblem(15, 15)
	x := make([]float64, a.Rows)
	r0 := residual(a, b, x)
	if err := Sequential(a, b, x, 50, false); err != nil {
		t.Fatal(err)
	}
	if r := residual(a, b, x); r > r0*0.01 {
		t.Fatalf("sequential GS barely converged: %g -> %g", r0, r)
	}
}

func TestPointMulticolorConverges(t *testing.T) {
	a, b, _ := testProblem(15, 15)
	m, err := NewPoint(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	r0 := residual(a, b, x)
	m.Apply(b, x, 50, false)
	if r := residual(a, b, x); r > r0*0.01 {
		t.Fatalf("point MC-GS barely converged: %g -> %g", r0, r)
	}
}

func TestClusterMulticolorConverges(t *testing.T) {
	a, b, _ := testProblem(15, 15)
	agg := coarsen.MIS2Aggregation(a.Graph(), coarsen.Options{})
	m, err := NewCluster(a, agg, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	r0 := residual(a, b, x)
	m.Apply(b, x, 50, false)
	if r := residual(a, b, x); r > r0*0.01 {
		t.Fatalf("cluster MC-GS barely converged: %g -> %g", r0, r)
	}
}

func TestClusterMatchesSequentialWithOneCluster(t *testing.T) {
	// With every row in a single cluster, cluster GS IS sequential GS.
	a, b, _ := testProblem(8, 8)
	n := a.Rows
	labels := make([]int32, n)
	agg := coarsen.Aggregation{Labels: labels, NumAggregates: 1, Roots: []int32{0}}
	m, err := NewCluster(a, agg, 0)
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	m.Apply(b, x1, 3, true)
	if err := Sequential(a, b, x2, 3, true); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-13 {
			t.Fatalf("single-cluster GS differs from sequential at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}

func TestDeterminismAcrossThreads(t *testing.T) {
	a, b, _ := testProblem(20, 20)
	agg := coarsen.MIS2Aggregation(a.Graph(), coarsen.Options{})
	run := func(threads int, cluster bool) []float64 {
		var m *Multicolor
		var err error
		if cluster {
			m, err = NewCluster(a, agg, threads)
		} else {
			m, err = NewPoint(a, threads)
		}
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Rows)
		m.Apply(b, x, 5, true)
		return x
	}
	for _, cluster := range []bool{false, true} {
		ref := run(1, cluster)
		got := run(8, cluster)
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("cluster=%v: x[%d] differs across thread counts (%g vs %g)",
					cluster, i, ref[i], got[i])
			}
		}
	}
}

func TestClusterReducesIterationsVsPoint(t *testing.T) {
	// The paper's §III-C claim: cluster MC-GS preconditioning brings
	// GMRES iteration counts closer to sequential GS, i.e. no worse than
	// point MC-GS (Table VI shows ~5% fewer on average).
	g := gen.Laplace2D(30, 30)
	a := gen.WeightedLaplacian(g, 0.05, 17)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	rt := par.New(0)

	point, err := NewPoint(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg := coarsen.MIS2Aggregation(a.Graph(), coarsen.Options{})
	cluster, err := NewCluster(a, agg, 0)
	if err != nil {
		t.Fatal(err)
	}

	xp := make([]float64, n)
	stP, err := krylov.GMRESCtx(nil, rt, a, b, xp, 50, krylov.Options{Tol: 1e-8, MaxIter: 800, M: point})
	if err != nil {
		t.Fatal(err)
	}
	xc := make([]float64, n)
	stC, err := krylov.GMRESCtx(nil, rt, a, b, xc, 50, krylov.Options{Tol: 1e-8, MaxIter: 800, M: cluster})
	if err != nil {
		t.Fatal(err)
	}
	if !stP.Converged || !stC.Converged {
		t.Fatalf("preconditioned GMRES failed: point %+v cluster %+v", stP, stC)
	}
	if float64(stC.Iterations) > 1.25*float64(stP.Iterations) {
		t.Fatalf("cluster iterations %d much worse than point %d", stC.Iterations, stP.Iterations)
	}
}

func TestSymmetricSweepOrder(t *testing.T) {
	// A symmetric sweep from zero initial guess must equal a forward
	// sweep followed by a backward sweep.
	a, b, _ := testProblem(10, 10)
	m, err := NewPoint(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, a.Rows)
	m.Apply(b, x1, 1, true)
	x2 := make([]float64, a.Rows)
	m.Sweep(b, x2, true)
	m.Sweep(b, x2, false)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("symmetric apply != forward+backward sweeps")
		}
	}
}

func TestErrorCases(t *testing.T) {
	bad := &sparse.Matrix{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}
	if _, err := NewPoint(bad, 0); err == nil {
		t.Fatal("non-square accepted by NewPoint")
	}
	zd := &sparse.Matrix{Rows: 2, Cols: 2,
		RowPtr: []int{0, 1, 2}, Col: []int32{1, 0}, Val: []float64{1, 1}}
	if _, err := NewPoint(zd, 0); err == nil {
		t.Fatal("zero diagonal accepted by NewPoint")
	}
	if err := Sequential(zd, []float64{1, 1}, []float64{0, 0}, 1, false); err == nil {
		t.Fatal("zero diagonal accepted by Sequential")
	}
	a, _, _ := testProblem(4, 4)
	badAgg := coarsen.Aggregation{Labels: make([]int32, 3), NumAggregates: 1}
	if _, err := NewCluster(a, badAgg, 0); err == nil {
		t.Fatal("bad aggregation accepted by NewCluster")
	}
}

func TestPointPatternRefillMatchesNewPoint(t *testing.T) {
	// Colored once from the pattern, then refilled with each value set,
	// the operator sweeps bitwise like a fresh NewPoint on those values.
	a, b, _ := testProblem(12, 12)
	m, err := NewPointPattern(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{1, 1.5, 0.25} {
		as := a.Clone()
		for p := range as.Val {
			as.Val[p] *= scale
		}
		if err := m.Refill(as); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPoint(as, 2)
		if err != nil {
			t.Fatal(err)
		}
		x, y := make([]float64, a.Rows), make([]float64, a.Rows)
		m.Apply(b, x, 2, true)
		fresh.Apply(b, y, 2, true)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("scale %g: x[%d] = %v after Refill, %v from NewPoint", scale, i, x[i], y[i])
			}
		}
	}
	small, _, _ := testProblem(3, 3)
	if err := m.Refill(small); err == nil {
		t.Fatal("Refill accepted a matrix of another order")
	}
	zd := a.Clone()
	for p := zd.RowPtr[5]; p < zd.RowPtr[6]; p++ {
		if zd.Col[p] == 5 {
			zd.Val[p] = 0
		}
	}
	if err := m.Refill(zd); err == nil {
		t.Fatal("Refill accepted a zero diagonal")
	}
}

func TestPreconditionInterface(t *testing.T) {
	a, b, _ := testProblem(12, 12)
	m, err := NewPoint(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	var p krylov.Preconditioner = m
	z := make([]float64, a.Rows)
	p.Precondition(b, z)
	nonzero := false
	for _, v := range z {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("preconditioner produced zero output")
	}
}

// Sequential runs classical Gauss-Seidel sweeps on A x = b in natural row
// order, updating x in place. The reference method the multicolor
// variants approximate.
func Sequential(a *sparse.Matrix, b, x []float64, sweeps int, symmetric bool) error {
	if a.Rows != a.Cols {
		return errors.New("gs: matrix must be square")
	}
	d := a.Diagonal()
	for i, v := range d {
		if v == 0 {
			return fmt.Errorf("gs: zero diagonal at row %d", i)
		}
		d[i] = 1 / v
	}
	relax := func(i int32) {
		s := b[i]
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := a.Col[q]
			if j != i {
				s -= a.Val[q] * x[j]
			}
		}
		x[i] = s * d[i]
	}
	for sw := 0; sw < sweeps; sw++ {
		for i := int32(0); int(i) < a.Rows; i++ {
			relax(i)
		}
		if symmetric {
			for i := int32(a.Rows) - 1; i >= 0; i-- {
				relax(i)
			}
		}
	}
	return nil
}
