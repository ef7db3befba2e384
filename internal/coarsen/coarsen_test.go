package coarsen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mis2go/internal/graph"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

func randomGraph(n, m int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return graph.FromEdges(n, edges)
}

func grid2D(nx, ny int) *graph.CSR {
	idx := func(x, y int) int32 { return int32(y*nx + x) }
	var edges []graph.Edge
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				edges = append(edges, graph.Edge{U: idx(x, y), V: idx(x+1, y)})
			}
			if y+1 < ny {
				edges = append(edges, graph.Edge{U: idx(x, y), V: idx(x, y+1)})
			}
		}
	}
	return graph.FromEdges(nx*ny, edges)
}

type scheme struct {
	name string
	run  func(*graph.CSR) Aggregation
}

func allSchemes() []scheme {
	return []scheme{
		{name: "Basic", run: func(g *graph.CSR) Aggregation { return Basic(g, Options{}) }},
		{name: "MIS2Agg", run: func(g *graph.CSR) Aggregation { return MIS2Aggregation(g, Options{}) }},
		{name: "SerialGreedy", run: SerialGreedy},
		{name: "SerialD2C", run: func(g *graph.CSR) Aggregation { return D2C(g, 0, false) }},
		{name: "NBD2C", run: func(g *graph.CSR) Aggregation { return D2C(g, 0, true) }},
	}
}

func TestAllSchemesTotalOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint64(seed)%120)
		g := randomGraph(n, 3*n, seed)
		for _, s := range allSchemes() {
			agg := s.run(g)
			if Check(g, agg) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBasicAggregatesAroundRoots(t *testing.T) {
	g := grid2D(15, 15)
	agg := Basic(g, Options{})
	if err := Check(g, agg); err != nil {
		t.Fatal(err)
	}
	// Each root and all its neighbors share the root's aggregate.
	for i, r := range agg.Roots {
		if int(agg.Labels[r]) != i && i < agg.NumAggregates {
			// finalizeSingletons appends roots for stragglers, whose ids
			// follow the MIS roots; check label consistency instead.
			continue
		}
		a := agg.Labels[r]
		for _, w := range g.Neighbors(r) {
			if agg.Labels[w] != a {
				t.Fatalf("neighbor %d of root %d not in root aggregate", w, r)
			}
		}
	}
}

func TestMIS2AggregationDiameter(t *testing.T) {
	// Every aggregate from roots+neighbors+cleanup has vertices within
	// distance <= 2 of the root... cleanup can attach distance-2 vertices;
	// check aggregate diameter is bounded (<= 4 in graph distance).
	g := grid2D(12, 12)
	agg := MIS2Aggregation(g, Options{})
	if err := Check(g, agg); err != nil {
		t.Fatal(err)
	}
	sizes := Sizes(agg)
	for a, s := range sizes {
		if s > 30 {
			t.Fatalf("aggregate %d suspiciously large: %d", a, s)
		}
	}
}

func TestMIS2AggregationFewerSmallAggregates(t *testing.T) {
	// Algorithm 3's phase-2 threshold avoids tiny secondary aggregates;
	// on a mesh the mean aggregate size should comfortably exceed 3.
	g := grid2D(40, 40)
	agg := MIS2Aggregation(g, Options{})
	mean := float64(g.N) / float64(agg.NumAggregates)
	if mean < 3 {
		t.Fatalf("mean aggregate size %.2f too small", mean)
	}
}

func TestDeterminismAcrossThreads(t *testing.T) {
	g := randomGraph(400, 2000, 31)
	for _, s := range []struct {
		name string
		run  func(threads int) Aggregation
	}{
		{name: "Basic", run: func(th int) Aggregation { return Basic(g, Options{Threads: th}) }},
		{name: "MIS2Agg", run: func(th int) Aggregation { return MIS2Aggregation(g, Options{Threads: th}) }},
		{name: "NBD2C", run: func(th int) Aggregation { return D2C(g, th, true) }},
	} {
		ref := s.run(1)
		for _, th := range []int{2, 8} {
			got := s.run(th)
			if got.NumAggregates != ref.NumAggregates {
				t.Fatalf("%s: aggregate count differs across threads", s.name)
			}
			for v := range ref.Labels {
				if got.Labels[v] != ref.Labels[v] {
					t.Fatalf("%s: label of %d differs across threads", s.name, v)
				}
			}
		}
	}
}

func TestRootsAreDistance2Separated(t *testing.T) {
	g := grid2D(20, 20)
	agg := Basic(g, Options{})
	// Basic roots are exactly the MIS-2: pairwise distance > 2.
	for i, r := range agg.Roots {
		for j := i + 1; j < len(agg.Roots); j++ {
			if g.DistanceLeq2(r, agg.Roots[j]) {
				t.Fatalf("roots %d and %d within distance 2", r, agg.Roots[j])
			}
		}
	}
}

func TestCoarseGraph(t *testing.T) {
	g := grid2D(10, 10)
	agg := MIS2Aggregation(g, Options{})
	cg := CoarseGraph(g, agg)
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.N != agg.NumAggregates {
		t.Fatalf("coarse N = %d, want %d", cg.N, agg.NumAggregates)
	}
	if d := sameCSR(cg, referenceCoarseGraph(g, agg)); d != "" {
		t.Fatal(d)
	}
	// Every coarse edge must be witnessed by a fine edge.
	for a := int32(0); int(a) < cg.N; a++ {
		for _, b := range cg.Neighbors(a) {
			found := false
			for v := int32(0); int(v) < g.N && !found; v++ {
				if agg.Labels[v] != a {
					continue
				}
				for _, w := range g.Neighbors(v) {
					if agg.Labels[w] == b {
						found = true
						break
					}
				}
			}
			if !found {
				t.Fatalf("coarse edge (%d,%d) has no fine witness", a, b)
			}
		}
	}
}

func TestProlongatorColumnsOrthonormal(t *testing.T) {
	g := grid2D(12, 12)
	agg := MIS2Aggregation(g, Options{})
	p := Prolongator(agg)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Rows != g.N || p.Cols != agg.NumAggregates {
		t.Fatal("prolongator shape wrong")
	}
	// P^T P = I for the tentative prolongator.
	rt := par.New(2)
	pt := p.Transpose()
	pl, err := sparse.PlanMultiply(rt, pt, p)
	if err != nil {
		t.Fatal(err)
	}
	ptp := pl.NewMatrix()
	if err := pl.Replay(rt, pt, p, ptp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ptp.Rows; i++ {
		for q := ptp.RowPtr[i]; q < ptp.RowPtr[i+1]; q++ {
			want := 0.0
			if int(ptp.Col[q]) == i {
				want = 1.0
			}
			if math.Abs(ptp.Val[q]-want) > 1e-12 {
				t.Fatalf("PtP entry (%d,%d) = %g", i, ptp.Col[q], ptp.Val[q])
			}
		}
	}
}

func TestCheckCatchesBadAggregation(t *testing.T) {
	g := grid2D(4, 4)
	agg := Basic(g, Options{})
	bad := Aggregation{Labels: append([]int32(nil), agg.Labels...), NumAggregates: agg.NumAggregates}
	bad.Labels[0] = int32(agg.NumAggregates) // out of range
	if Check(g, bad) == nil {
		t.Fatal("out-of-range label not caught")
	}
	bad2 := Aggregation{Labels: agg.Labels, NumAggregates: agg.NumAggregates + 1}
	if Check(g, bad2) == nil {
		t.Fatal("empty aggregate not caught")
	}
	if Check(g, Aggregation{Labels: []int32{0}, NumAggregates: 1}) == nil {
		t.Fatal("length mismatch not caught")
	}
}

func TestEdgeCases(t *testing.T) {
	for _, s := range allSchemes() {
		empty := graph.FromEdges(0, nil)
		agg := s.run(empty)
		if agg.NumAggregates != 0 || len(agg.Labels) != 0 {
			t.Fatalf("%s: empty graph mishandled", s.name)
		}
		single := graph.FromEdges(1, nil)
		agg = s.run(single)
		if err := Check(single, agg); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		iso := graph.FromEdges(4, nil)
		agg = s.run(iso)
		if err := Check(iso, agg); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if agg.NumAggregates != 4 {
			t.Fatalf("%s: isolated vertices must be singleton aggregates, got %d", s.name, agg.NumAggregates)
		}
	}
}

func TestSizesSumToN(t *testing.T) {
	g := randomGraph(300, 1200, 5)
	for _, s := range allSchemes() {
		agg := s.run(g)
		total := 0
		for _, sz := range Sizes(agg) {
			total += sz
		}
		if total != g.N {
			t.Fatalf("%s: sizes sum %d != %d", s.name, total, g.N)
		}
	}
}
