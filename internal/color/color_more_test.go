package color

import (
	"testing"
	"testing/quick"

	"mis2go/internal/graph"
)

func completeGraph(n int) *graph.CSR {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
		}
	}
	return graph.FromEdges(n, edges)
}

func pathGraph(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	return graph.FromEdges(n, edges)
}

func TestGreedyBoundedByMaxDegreePlusOne(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%120)
		g := randomGraph(n, 4*n, seed)
		return NumColors(Greedy(g)) <= g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelBoundedByMaxDegreePlusOne(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%120)
		g := randomGraph(n, 4*n, seed)
		return NumColors(Parallel(g, 0)) <= g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteGraphNeedsNColors(t *testing.T) {
	g := completeGraph(7)
	if nc := NumColors(Greedy(g)); nc != 7 {
		t.Fatalf("greedy K7 colors = %d", nc)
	}
	if nc := NumColors(Parallel(g, 0)); nc != 7 {
		t.Fatalf("parallel K7 colors = %d", nc)
	}
	// In K7 everything is within distance 1, so D2 coloring equals D1.
	if nc := NumColors(GreedyDistance2(g)); nc != 7 {
		t.Fatalf("D2 K7 colors = %d", nc)
	}
}

func TestPathTwoColors(t *testing.T) {
	g := pathGraph(20)
	if nc := NumColors(Greedy(g)); nc != 2 {
		t.Fatalf("path greedy colors = %d", nc)
	}
	// Distance-2 coloring of a path needs exactly 3 colors.
	if nc := NumColors(GreedyDistance2(g)); nc != 3 {
		t.Fatalf("path D2 colors = %d", nc)
	}
}

func TestD2LowerBoundClosedNeighborhood(t *testing.T) {
	// Distance-2 chromatic number >= maxdeg+1 (a vertex and all its
	// neighbors are pairwise within distance 2).
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%60)
		g := randomGraph(n, 3*n, seed)
		return NumColors(GreedyDistance2(g)) >= g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelD2NotWildlyWorseThanSerial(t *testing.T) {
	g := randomGraph(300, 1500, 77)
	s := NumColors(GreedyDistance2(g))
	p := NumColors(ParallelDistance2(g, 0))
	if p > 2*s+4 {
		t.Fatalf("parallel D2 uses %d colors vs serial %d", p, s)
	}
}

func TestColorSetsCoverEveryVertexOnce(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%100)
		g := randomGraph(n, 3*n, seed)
		sets := Sets(Parallel(g, 0))
		total := 0
		for _, s := range sets {
			total += len(s)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNumColorsEmpty(t *testing.T) {
	if NumColors(nil) != 0 {
		t.Fatal("NumColors(nil) != 0")
	}
	if len(Sets(nil)) != 0 {
		t.Fatal("Sets(nil) not empty")
	}
}
