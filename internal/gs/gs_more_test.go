package gs

import (
	"math"
	"testing"

	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/sparse"
)

func TestDiagonalMatrixSolvedInOneSweep(t *testing.T) {
	// For a diagonal matrix, one GS sweep computes the exact solution.
	n := 50
	a := &sparse.Matrix{Rows: n, Cols: n, RowPtr: make([]int, n+1), Col: make([]int32, n), Val: make([]float64, n)}
	for i := range a.Val {
		a.RowPtr[i+1] = i + 1
		a.Col[i] = int32(i)
		a.Val[i] = float64(i + 2)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i) - 10
	}
	m, err := NewPoint(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	m.Apply(b, x, 1, false)
	for i := range x {
		want := b[i] / float64(i+2)
		if math.Abs(x[i]-want) > 1e-15 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want)
		}
	}
	if m.NumColors != 1 {
		t.Fatalf("diagonal matrix needs 1 color, used %d", m.NumColors)
	}
}

func TestResidualDecreasesMonotonically(t *testing.T) {
	a, b, _ := testProblem(12, 12)
	agg := coarsen.MIS2Aggregation(a.Graph(), coarsen.Options{})
	for _, build := range []func() (*Multicolor, error){
		func() (*Multicolor, error) { return NewPoint(a, 0) },
		func() (*Multicolor, error) { return NewCluster(a, agg, 0) },
	} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Rows)
		prev := residual(a, b, x)
		for sweep := 0; sweep < 10; sweep++ {
			m.Apply(b, x, 1, true)
			r := residual(a, b, x)
			if r > prev*1.0000001 {
				t.Fatalf("sweep %d increased residual: %g -> %g", sweep, prev, r)
			}
			prev = r
		}
	}
}

func TestClusterFewerColorsThanPointTimesDegree(t *testing.T) {
	// The cluster graph is much smaller; its palette stays modest.
	g := gen.Laplace3D(12, 12, 12)
	a := gen.Laplacian(g, 0.1)
	agg := coarsen.MIS2Aggregation(g, coarsen.Options{})
	cl, err := NewCluster(a, agg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumColors > 40 {
		t.Fatalf("cluster coloring used %d colors", cl.NumColors)
	}
}

func TestSequentialSymmetricMatchesManual(t *testing.T) {
	// SGS = forward then backward; verify against explicit loops.
	a, b, _ := testProblem(6, 6)
	n := a.Rows
	x1 := make([]float64, n)
	if err := Sequential(a, b, x1, 1, true); err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, n)
	d := a.Diagonal()
	relax := func(i int) {
		s := b[i]
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if int(a.Col[q]) != i {
				s -= a.Val[q] * x2[a.Col[q]]
			}
		}
		x2[i] = s / d[i]
	}
	for i := 0; i < n; i++ {
		relax(i)
	}
	for i := n - 1; i >= 0; i-- {
		relax(i)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-14 {
			t.Fatalf("x[%d]: %g vs %g", i, x1[i], x2[i])
		}
	}
}

func TestClusterRowsAscendingWithinCluster(t *testing.T) {
	a, _, _ := testProblem(10, 10)
	agg := coarsen.MIS2Aggregation(a.Graph(), coarsen.Options{})
	m, err := NewCluster(a, agg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, rows := range m.clusterRows {
		for i := 1; i < len(rows); i++ {
			if rows[i-1] >= rows[i] {
				t.Fatalf("cluster %d rows not ascending", k)
			}
		}
	}
}

func TestSameColorClustersShareNoEntries(t *testing.T) {
	// The correctness precondition for parallel cluster updates: two
	// same-colored clusters must have no matrix entries between them.
	a, _, _ := testProblem(12, 12)
	g := a.Graph()
	agg := coarsen.MIS2Aggregation(g, coarsen.Options{})
	m, err := NewCluster(a, agg, 0)
	if err != nil {
		t.Fatal(err)
	}
	colorOf := make([]int32, agg.NumAggregates)
	for c, set := range m.groups {
		for _, k := range set {
			colorOf[k] = int32(c)
		}
	}
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			cv, cw := agg.Labels[v], agg.Labels[w]
			if cv != cw && colorOf[cv] == colorOf[cw] {
				t.Fatalf("adjacent clusters %d and %d share color %d", cv, cw, colorOf[cv])
			}
		}
	}
}

func TestApplyZeroSweepsIsNoop(t *testing.T) {
	a, b, _ := testProblem(5, 5)
	m, err := NewPoint(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	m.Apply(b, x, 0, true)
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero sweeps modified x")
		}
	}
}

func TestSequentialVsMulticolorConvergeToSameSolution(t *testing.T) {
	a, b, xTrue := testProblem(10, 10)
	n := a.Rows
	xs := make([]float64, n)
	if err := Sequential(a, b, xs, 300, true); err != nil {
		t.Fatal(err)
	}
	m, err := NewPoint(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	xm := make([]float64, n)
	m.Apply(b, xm, 300, true)
	for i := range xTrue {
		if math.Abs(xs[i]-xTrue[i]) > 1e-6 || math.Abs(xm[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("solutions diverge at %d: seq %g mc %g want %g", i, xs[i], xm[i], xTrue[i])
		}
	}
}
