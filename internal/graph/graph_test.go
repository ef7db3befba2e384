package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mis2go/internal/par"
)

// randomGraph builds a deterministic random graph for property tests.
func randomGraph(n, m int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return FromEdges(n, edges)
}

func pathGraph(n int) *CSR {
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{U: int32(i), V: int32(i + 1)})
	}
	return FromEdges(n, edges)
}

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 1}, {1, 0}, {2, 2}, {-1, 0}, {0, 9}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 4 {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() != 6 { // 3 undirected edges stored twice
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) || g.HasEdge(2, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatal("Degree wrong")
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g := FromEdges(0, nil)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g = FromEdges(5, nil)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph stats wrong")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *CSR { return FromEdges(3, []Edge{{0, 1}, {1, 2}}) }

	g := fresh()
	g.RowPtr[0] = 1
	if g.Validate() == nil {
		t.Fatal("bad RowPtr[0] not caught")
	}

	g = fresh()
	g.Col[0] = 5
	if g.Validate() == nil {
		t.Fatal("out-of-range column not caught")
	}

	g = fresh()
	g.Col[0] = 0 // self loop at row 0
	if g.Validate() == nil {
		t.Fatal("self-loop not caught")
	}

	g = fresh()
	g.RowPtr = g.RowPtr[:2]
	if g.Validate() == nil {
		t.Fatal("short RowPtr not caught")
	}

	// Asymmetric: craft by hand.
	bad := &CSR{N: 2, RowPtr: []int{0, 1, 1}, Col: []int32{1}}
	if bad.Validate() == nil {
		t.Fatal("asymmetry not caught")
	}
}

func TestDegreeStats(t *testing.T) {
	g := pathGraph(5)
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 8.0/5.0 {
		t.Fatalf("AvgDegree = %f", got)
	}
}

func TestSquareAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%25)
		g := randomGraph(n, 2*n, seed)
		sq := g.Square()
		if err := sq.Validate(); err != nil {
			return false
		}
		for u := int32(0); int(u) < n; u++ {
			for v := int32(0); int(v) < n; v++ {
				if u == v {
					continue
				}
				want := g.DistanceLeq2(u, v)
				if got := sq.HasEdge(u, v); got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSquareOfPath(t *testing.T) {
	g := pathGraph(5)
	sq := g.Square()
	// In the square of a path, vertex 2 is adjacent to 0,1,3,4.
	if sq.Degree(2) != 4 {
		t.Fatalf("square degree of middle vertex = %d, want 4", sq.Degree(2))
	}
	if sq.Degree(0) != 2 {
		t.Fatalf("square degree of endpoint = %d, want 2", sq.Degree(0))
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := pathGraph(6)
	keep := []bool{true, true, false, true, true, true}
	sub, toSub, toOrig := g.InducedSubgraph(par.New(2), keep)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.N != 5 {
		t.Fatalf("sub.N = %d", sub.N)
	}
	if toSub[2] != -1 {
		t.Fatal("dropped vertex must map to -1")
	}
	// Edge 0-1 survives; edges through 2 are gone; 3-4, 4-5 survive.
	if !sub.HasEdge(toSub[0], toSub[1]) || !sub.HasEdge(toSub[3], toSub[4]) || !sub.HasEdge(toSub[4], toSub[5]) {
		t.Fatal("expected edges missing in subgraph")
	}
	if sub.HasEdge(toSub[1], toSub[3]) {
		t.Fatal("phantom edge in subgraph")
	}
	for s, v := range toOrig {
		if toSub[v] != int32(s) {
			t.Fatal("toSub/toOrig not inverse")
		}
	}
}

func TestInducedSubgraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 4 + int(uint64(seed)%30)
		g := randomGraph(n, 3*n, seed)
		keep := make([]bool, n)
		for i := range keep {
			keep[i] = (uint64(seed)>>(uint(i)%48))&1 == 0
		}
		sub, toSub, toOrig := g.InducedSubgraph(par.New(2), keep)
		if sub.Validate() != nil {
			return false
		}
		// Every subgraph edge corresponds to an original edge.
		for s := int32(0); int(s) < sub.N; s++ {
			for _, w := range sub.Neighbors(s) {
				if !g.HasEdge(toOrig[s], toOrig[w]) {
					return false
				}
			}
		}
		// Every original edge between kept vertices appears.
		for u := int32(0); int(u) < n; u++ {
			if !keep[u] {
				continue
			}
			for _, w := range g.Neighbors(u) {
				if keep[w] && !sub.HasEdge(toSub[u], toSub[w]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceLeq2(t *testing.T) {
	g := pathGraph(6)
	cases := []struct {
		u, v int32
		want bool
	}{
		{0, 0, true}, {0, 1, true}, {0, 2, true}, {0, 3, false}, {2, 4, true}, {1, 5, false},
	}
	for _, c := range cases {
		if got := g.DistanceLeq2(c.u, c.v); got != c.want {
			t.Fatalf("DistanceLeq2(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(7, []Edge{{0, 1}, {1, 2}, {3, 4}})
	label, num := g.ConnectedComponents()
	if num != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("components = %d, want 4", num)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("0,1,2 must share a component")
	}
	if label[3] != label[4] || label[3] == label[0] {
		t.Fatal("3,4 must share a separate component")
	}
	if label[5] == label[6] {
		t.Fatal("isolated vertices must be separate components")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := randomGraph(50, 400, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.N; v++ {
		adj := g.Neighbors(v)
		for i := 1; i < len(adj); i++ {
			if adj[i-1] >= adj[i] {
				t.Fatalf("row %d not strictly sorted", v)
			}
		}
	}
}

// ConnectedComponents returns a component label per vertex and the number
// of components, via iterative BFS.
func (g *CSR) ConnectedComponents() ([]int32, int) {
	label := make([]int32, g.N)
	for i := range label {
		label[i] = -1
	}
	next := 0
	queue := make([]int32, 0, 1024)
	for s := 0; s < g.N; s++ {
		if label[s] >= 0 {
			continue
		}
		id := int32(next)
		next++
		label[s] = id
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if label[w] < 0 {
					label[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return label, next
}
