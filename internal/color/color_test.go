package color

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mis2go/internal/graph"
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

func TestGreedyValid(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%150)
		g := randomGraph(n, 4*n, seed)
		return Check(g, Greedy(g)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelValid(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%150)
		g := randomGraph(n, 4*n, seed)
		return Check(g, Parallel(g, 0)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyDistance2Valid(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%80)
		g := randomGraph(n, 3*n, seed)
		return CheckDistance2(g, GreedyDistance2(g)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelDistance2Valid(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%80)
		g := randomGraph(n, 3*n, seed)
		return CheckDistance2(g, ParallelDistance2(g, 0)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelDeterministicAcrossThreads(t *testing.T) {
	g := randomGraph(400, 2000, 17)
	ref := Parallel(g, 1)
	refD2 := ParallelDistance2(g, 1)
	for _, w := range []int{2, 8, 0} {
		got := Parallel(g, w)
		gotD2 := ParallelDistance2(g, w)
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("threads=%d: D1 color of %d differs", w, v)
			}
			if gotD2[v] != refD2[v] {
				t.Fatalf("threads=%d: D2 color of %d differs", w, v)
			}
		}
	}
}

func TestGridColorCounts(t *testing.T) {
	g := grid2D(20, 20)
	// A bipartite grid needs exactly 2 colors greedily.
	if nc := NumColors(Greedy(g)); nc != 2 {
		t.Fatalf("greedy grid colors = %d, want 2", nc)
	}
	// Parallel may use a few more but must stay small.
	if nc := NumColors(Parallel(g, 0)); nc > 5 {
		t.Fatalf("parallel grid colors = %d, too many", nc)
	}
	// Distance-2 coloring of a 5-point grid needs at least 5 colors
	// (a vertex plus its 4 neighbors are mutually within distance 2).
	if nc := NumColors(GreedyDistance2(g)); nc < 5 {
		t.Fatalf("distance-2 grid colors = %d, want >= 5", nc)
	}
}

func TestSetsPartition(t *testing.T) {
	g := randomGraph(200, 1000, 23)
	colors := Greedy(g)
	sets := Sets(colors)
	if len(sets) != NumColors(colors) {
		t.Fatal("Sets length mismatch")
	}
	seen := make([]bool, g.N)
	for c, set := range sets {
		if len(set) == 0 {
			t.Fatalf("color %d empty", c)
		}
		for i, v := range set {
			if colors[v] != int32(c) {
				t.Fatal("vertex in wrong set")
			}
			if seen[v] {
				t.Fatal("vertex appears twice")
			}
			seen[v] = true
			if i > 0 && set[i-1] >= v {
				t.Fatal("set not ascending")
			}
		}
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("vertex %d missing from sets", v)
		}
	}
}

func TestCheckCatchesViolations(t *testing.T) {
	g := grid2D(3, 3)
	colors := Greedy(g)
	colors[1] = colors[0] // adjacent in the grid
	if Check(g, colors) == nil {
		t.Fatal("conflict not caught")
	}
	colors = Greedy(g)
	colors[0] = -1
	if Check(g, colors) == nil {
		t.Fatal("uncolored vertex not caught")
	}
	if Check(g, []int32{0}) == nil {
		t.Fatal("length mismatch not caught")
	}
	// D2 violation: two vertices at distance 2 with equal colors.
	colors = GreedyDistance2(g)
	// vertices 0 and 2 are distance 2 apart on the top row
	colors[2] = colors[0]
	if CheckDistance2(g, colors) == nil {
		t.Fatal("distance-2 conflict not caught")
	}
}

func TestEmptyAndSingletonGraphs(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	if len(Parallel(empty, 0)) != 0 {
		t.Fatal("empty graph coloring should be empty")
	}
	single := graph.FromEdges(1, nil)
	c := Parallel(single, 0)
	if len(c) != 1 || c[0] != 0 {
		t.Fatalf("single vertex color = %v", c)
	}
	iso := graph.FromEdges(5, nil)
	if nc := NumColors(Greedy(iso)); nc != 1 {
		t.Fatalf("isolated vertices need 1 color, got %d", nc)
	}
}

// CheckDistance2 verifies a distance-2 coloring.
func CheckDistance2(g *graph.CSR, colors []int32) error {
	if err := Check(g, colors); err != nil {
		return err
	}
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			for _, x := range g.Neighbors(w) {
				if x != v && colors[v] == colors[x] {
					return fmt.Errorf("color: distance-2 vertices %d and %d share color %d", v, x, colors[v])
				}
			}
		}
	}
	return nil
}
