package mis2go

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPublicAPIMIS2(t *testing.T) {
	g := Laplace3D(12, 12, 12)
	res := MIS2(g, MISOptions{})
	if err := VerifyMIS2(g, res.InSet); err != nil {
		t.Fatal(err)
	}
	if len(res.InSet) == 0 || res.Iterations == 0 {
		t.Fatal("degenerate result")
	}
}

func TestPublicAPINewGraph(t *testing.T) {
	g := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	res := MIS2(g, MISOptions{Hash: HashXorStar})
	if err := VerifyMIS2(g, res.InSet); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIAggregation(t *testing.T) {
	g := Laplace2D(20, 20)
	for _, agg := range []Aggregation{Aggregate(g, 0), CoarsenBasic(g, 0)} {
		if agg.NumAggregates == 0 {
			t.Fatal("no aggregates")
		}
		cg := CoarseGraph(g, agg)
		if cg.N != agg.NumAggregates {
			t.Fatal("coarse graph size mismatch")
		}
		if cg.N >= g.N {
			t.Fatal("no coarsening achieved")
		}
	}
}

func TestPublicAPIAMGCG(t *testing.T) {
	g := Laplace3D(10, 10, 10)
	a := GraphLaplacian(g, 0.05)
	h, err := NewAMG(a, AMGOptions{MinCoarseSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x := make([]float64, n)
	st, err := SolveCG(a, b, x, SolveOptions{Tol: 1e-10, MaxIter: 300, M: h}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
}

func TestPublicAPIClusterSGS(t *testing.T) {
	g := Laplace2D(25, 25)
	a := WeightedGraphLaplacian(g, 0.1, 3)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	for _, build := range []func() (*GaussSeidel, error){
		func() (*GaussSeidel, error) { return NewPointSGS(a, 0) },
		func() (*GaussSeidel, error) { return NewClusterSGS(a, 0) },
	} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		st, err := SolveGMRES(a, b, x, 50, SolveOptions{Tol: 1e-8, MaxIter: 800, M: m}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("not converged: %+v", st)
		}
	}
}

func TestPublicAPIClusterSGSFromCustomAggregation(t *testing.T) {
	g := Laplace2D(15, 15)
	a := GraphLaplacian(g, 0.2)
	agg := CoarsenBasic(g, 0)
	m, err := NewClusterSGSFrom(a, agg, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	z := make([]float64, a.Rows)
	m.Precondition(b, z)
}

func TestPublicAPIMISK(t *testing.T) {
	g := Laplace2D(20, 20)
	for k := 1; k <= 4; k++ {
		res := MISK(g, k, 0)
		if len(res.InSet) == 0 {
			t.Fatalf("k=%d: empty set", k)
		}
		if err := VerifyMISK(g, res.InSet, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	// Larger k means sparser sets.
	if len(MISK(g, 4, 0).InSet) >= len(MISK(g, 1, 0).InSet) {
		t.Fatal("MIS-4 not sparser than MIS-1")
	}
}

func TestPublicAPIBisect(t *testing.T) {
	g := Laplace2D(30, 30)
	for _, pol := range []PartitionOptions{{Policy: PartitionMIS2}, {Policy: PartitionHEM}} {
		res, err := Bisect(g, pol)
		if err != nil {
			t.Fatal(err)
		}
		if res.Balance > 1.1 || res.EdgeCut <= 0 {
			t.Fatalf("bad bisection: %+v", res)
		}
	}
}

func TestPublicAPIMatrixMarket(t *testing.T) {
	g := Laplace2D(6, 6)
	a := GraphLaplacian(g, 0.5)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	b, err := ReadMatrixMarket(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if b.NNZ() != a.NNZ() {
		t.Fatal("matrix market round trip changed nnz")
	}
	h, err := ReadGraphMatrixMarket(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if h.N != g.N || h.NumEdges() != g.NumEdges() {
		t.Fatal("graph read from matrix differs from source pattern")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	for name, g := range map[string]*Graph{
		"laplace3d":   Laplace3D(5, 5, 5),
		"laplace2d":   Laplace2D(8, 8),
		"elasticity":  Elasticity3D(4, 4, 4, 3),
		"randomfem":   RandomFEM(8, 8, 8, 12, 7),
		"constructed": NewGraph(3, []Edge{{U: 0, V: 1}}),
	} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPublicAPIKWayAndQuality(t *testing.T) {
	g := Laplace2D(16, 16)
	res, err := PartitionKWay(g, 4, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 || res.EdgeCut <= 0 {
		t.Fatalf("bad k-way result: %+v", res)
	}
	agg := Aggregate(g, 0)
	q := QualityOf(g, agg)
	if q.MeanSize <= 1 || q.BoundaryFraction <= 0 {
		t.Fatalf("bad quality stats: %+v", q)
	}
}

func TestPublicAPIJacobiPreconditioner(t *testing.T) {
	g := Laplace2D(14, 14)
	a := DirichletLaplacian(g, 4)
	m, err := JacobiPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%3) - 1
	}
	x := make([]float64, a.Rows)
	st, err := SolveCG(a, b, x, SolveOptions{Tol: 1e-10, MaxIter: 1000, M: m}, 0)
	if err != nil || !st.Converged {
		t.Fatalf("Jacobi-CG failed: %v %+v", err, st)
	}
}

func TestPublicAPIGSSmoothersInAMG(t *testing.T) {
	g := Laplace3D(7, 7, 7)
	a := DirichletLaplacian(g, 6)
	for _, sm := range []AMGSmoother{SmootherJacobi, SmootherPointSGS} {
		h, err := NewAMG(a, AMGOptions{MinCoarseSize: 40, Smoother: sm, PreSweeps: 1, PostSweeps: 1})
		if err != nil {
			t.Fatalf("smoother %d: %v", sm, err)
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, a.Rows)
		st, err := SolveCG(a, b, x, SolveOptions{Tol: 1e-9, MaxIter: 300, M: h}, 0)
		if err != nil || !st.Converged {
			t.Fatalf("smoother %d failed: %v %+v", sm, err, st)
		}
	}
}
