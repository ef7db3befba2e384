package graph

import (
	"testing"
	"testing/quick"

	"mis2go/internal/par"
)

func completeGraph(n int) *CSR {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: int32(i), V: int32(j)})
		}
	}
	return FromEdges(n, edges)
}

func starGraph(n int) *CSR {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: 0, V: int32(i)})
	}
	return FromEdges(n, edges)
}

func TestSquareOfStarIsComplete(t *testing.T) {
	// Every leaf of a star is within distance 2 of every other leaf.
	g := starGraph(8)
	sq := g.Square()
	for u := int32(0); u < 8; u++ {
		if sq.Degree(u) != 7 {
			t.Fatalf("square of star: degree(%d) = %d, want 7", u, sq.Degree(u))
		}
	}
}

func TestSquareOfCompleteIsComplete(t *testing.T) {
	g := completeGraph(6)
	sq := g.Square()
	if sq.NumEdges() != g.NumEdges() {
		t.Fatalf("square of K6 changed edges: %d vs %d", sq.NumEdges(), g.NumEdges())
	}
}

func TestSquareEmptyAndSingleton(t *testing.T) {
	if sq := FromEdges(0, nil).Square(); sq.N != 0 {
		t.Fatal("square of empty graph")
	}
	if sq := FromEdges(3, nil).Square(); sq.NumEdges() != 0 {
		t.Fatal("square of edgeless graph has edges")
	}
}

func TestSquareIdempotentOnDiameter2(t *testing.T) {
	// If diam(G) <= 2, G² is complete, and squaring again is a no-op.
	g := starGraph(10)
	sq := g.Square()
	sq2 := sq.Square()
	if sq2.NumEdges() != sq.NumEdges() {
		t.Fatal("square of complete graph not idempotent")
	}
}

func TestInducedSubgraphNoneAndAll(t *testing.T) {
	g := pathGraph(6)
	sub, _, toOrig := g.InducedSubgraph(par.New(2), make([]bool, 6))
	if sub.N != 0 || len(toOrig) != 0 {
		t.Fatal("empty induced subgraph wrong")
	}
	all := make([]bool, 6)
	for i := range all {
		all[i] = true
	}
	sub, _, _ = g.InducedSubgraph(par.New(2), all)
	if sub.N != 6 || sub.NumEdges() != g.NumEdges() {
		t.Fatal("full induced subgraph differs from original")
	}
}

func TestConnectedComponentsGridIsOne(t *testing.T) {
	g := randomGraph(50, 500, 3) // dense: almost surely connected
	_, num := g.ConnectedComponents()
	if num != 1 {
		t.Fatalf("dense random graph has %d components", num)
	}
	labels, num2 := FromEdges(5, nil).ConnectedComponents()
	if num2 != 5 {
		t.Fatalf("edgeless graph: %d components, want 5", num2)
	}
	seen := map[int32]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Fatal("labels not distinct for isolated vertices")
		}
		seen[l] = true
	}
}

func TestFromEdgesStressDedupe(t *testing.T) {
	// Insert the same edge many times in both orientations.
	edges := make([]Edge, 0, 1000)
	for i := 0; i < 500; i++ {
		edges = append(edges, Edge{U: 0, V: 1}, Edge{U: 1, V: 0})
	}
	g := FromEdges(2, edges)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("dedupe failed: %d arcs", g.NumEdges())
	}
}

func TestDegreeSumEqualsArcs(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%100)
		g := randomGraph(n, 4*n, seed)
		sum := 0
		for v := 0; v < g.N; v++ {
			sum += g.Degree(int32(v))
		}
		return sum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdgeSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%60)
		g := randomGraph(n, 3*n, seed)
		for u := int32(0); int(u) < n; u++ {
			for v := int32(0); int(v) < n; v++ {
				if g.HasEdge(u, v) != g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteGraphStats(t *testing.T) {
	g := completeGraph(9)
	if g.MaxDegree() != 8 || g.AvgDegree() != 8 {
		t.Fatalf("K9 degrees wrong: max %d avg %f", g.MaxDegree(), g.AvgDegree())
	}
	if g.NumEdges() != 72 {
		t.Fatalf("K9 arcs = %d", g.NumEdges())
	}
}

func TestDistanceLeq2OnStar(t *testing.T) {
	g := starGraph(5)
	// All pairs are within distance 2 through the hub.
	for u := int32(0); u < 5; u++ {
		for v := int32(0); v < 5; v++ {
			if !g.DistanceLeq2(u, v) {
				t.Fatalf("star: (%d,%d) reported > 2 apart", u, v)
			}
		}
	}
}
