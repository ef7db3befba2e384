package coarsen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/par"
)

// referenceCoarseGraph builds the coarse graph serially from an edge
// list: one coarse edge per fine edge crossing aggregates, handed to
// graph.FromEdges, which drops self-loops and out-of-range endpoints and
// sorts and dedupes every row. It is the oracle for coarseGraph.
func referenceCoarseGraph(g *graph.CSR, agg Aggregation) *graph.CSR {
	edges := make([]graph.Edge, 0, g.NumEdges()/2)
	for v := int32(0); int(v) < g.N; v++ {
		av := agg.Labels[v]
		for _, w := range g.Neighbors(v) {
			if w > v {
				aw := agg.Labels[w]
				if av != aw {
					edges = append(edges, graph.Edge{U: av, V: aw})
				}
			}
		}
	}
	return graph.FromEdges(agg.NumAggregates, edges)
}

// sameCSR reports how two graphs differ, or "" if N, RowPtr and Col are
// equal element for element.
func sameCSR(got, want *graph.CSR) string {
	switch {
	case got.N != want.N:
		return fmt.Sprintf("N = %d, want %d", got.N, want.N)
	case !slices.Equal(got.RowPtr, want.RowPtr):
		return "RowPtr differs"
	case !slices.Equal(got.Col, want.Col):
		return "Col differs"
	}
	return ""
}

// checkCoarseGraphBitwise compares coarseGraph at 1, 2 and 8 workers
// against the reference.
func checkCoarseGraphBitwise(t *testing.T, name string, g *graph.CSR, agg Aggregation) {
	t.Helper()
	want := referenceCoarseGraph(g, agg)
	for _, th := range []int{1, 2, 8} {
		if d := sameCSR(coarseGraph(par.New(th), g, agg), want); d != "" {
			t.Fatalf("%s at %d workers: %s", name, th, d)
		}
	}
}

// singletons puts every vertex in its own aggregate.
func singletons(n int) Aggregation {
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}
	return Aggregation{Labels: labels, NumAggregates: n}
}

// oneAggregate puts every vertex in aggregate 0.
func oneAggregate(n int) Aggregation {
	return Aggregation{Labels: make([]int32, n), NumAggregates: 1}
}

// withIsolated returns g plus extra vertices that have no edges,
// interleaved with the original ones.
func withIsolated(g *graph.CSR) *graph.CSR {
	var edges []graph.Edge
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if w > v {
				edges = append(edges, graph.Edge{U: 2 * v, V: 2 * w})
			}
		}
	}
	return graph.FromEdges(2*g.N, edges)
}

func TestCoarseGraphBitwiseMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"laplace3d", gen.Laplace3D(20, 20, 20)},
		{"elasticity3d", gen.Elasticity3D(5, 5, 5, 3)},
		{"erdos-renyi", gen.ErdosRenyi(3000, 9000, 7)},
		{"random", randomGraph(2000, 5000, 11)},
		{"isolated", withIsolated(gen.Laplace3D(12, 12, 12))},
		{"edgeless", graph.FromEdges(700, nil)},
		{"empty", graph.FromEdges(0, nil)},
	}
	for _, tc := range graphs {
		g := tc.g
		aggs := []struct {
			name string
			agg  Aggregation
		}{
			{"mis2agg", MIS2Aggregation(g, Options{})},
			{"basic", Basic(g, Options{})},
			{"singletons", singletons(g.N)},
			{"one", oneAggregate(g.N)},
		}
		for _, a := range aggs {
			checkCoarseGraphBitwise(t, tc.name+"/"+a.name, g, a.agg)
		}
	}
}

func TestCoarseGraphBitwiseEveryLevel(t *testing.T) {
	// Multilevel coarsening reaches the denser coarse levels, whose rows
	// are longer than any mesh row.
	g := gen.Laplace3D(24, 24, 24)
	for level := 0; g.N > 50; level++ {
		agg := MIS2Aggregation(g, Options{})
		checkCoarseGraphBitwise(t, fmt.Sprintf("level %d", level), g, agg)
		if agg.NumAggregates >= g.N {
			break
		}
		g = coarseGraph(par.New(2), g, agg)
		if err := g.Validate(); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
	}
}

func TestCoarseGraphBitwiseMalformedLabels(t *testing.T) {
	// Labels of -1 or >= NumAggregates put a vertex in no aggregate; the
	// reference's FromEdges silently drops every edge touching one.
	g := gen.Laplace3D(16, 16, 16)
	agg := MIS2Aggregation(g, Options{})
	rng := rand.New(rand.NewSource(3))
	bad := Aggregation{Labels: slices.Clone(agg.Labels), NumAggregates: agg.NumAggregates}
	for v := range bad.Labels {
		switch rng.Intn(10) {
		case 0:
			bad.Labels[v] = -1
		case 1:
			bad.Labels[v] = int32(agg.NumAggregates + rng.Intn(3))
		}
	}
	checkCoarseGraphBitwise(t, "mixed", g, bad)

	none := Aggregation{Labels: make([]int32, g.N)}
	for v := range none.Labels {
		none.Labels[v] = -1
	}
	checkCoarseGraphBitwise(t, "all -1", g, none)
	checkCoarseGraphBitwise(t, "zero aggregates", g, Aggregation{Labels: make([]int32, g.N)})
}

// fuzzGraph decodes a graph from bytes: the first two bytes give the
// vertex count (1 to 2048) and each following byte pair one edge, whose
// endpoints are the two bytes plus the pair's offset, modulo the count.
// Sparse inputs leave many isolated vertices, so their singleton
// aggregates push the coarse graph past one parallel block.
func fuzzGraph(data []byte) *graph.CSR {
	if len(data) < 2 {
		return graph.FromEdges(0, nil)
	}
	n := 1 + (int(data[0])|int(data[1])<<8)%2048
	data = data[2:]
	edges := make([]graph.Edge, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		u := int32((int(data[i]) + i) % n)
		v := int32((int(data[i+1]) + i) % n)
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, edges)
}

// FuzzCoarseGraph checks the parallel coarse graph against the
// reference on MIS-2 aggregations of decoded graphs. Its seed corpus is
// in testdata/fuzz/FuzzCoarseGraph; run it with make fuzz.
func FuzzCoarseGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		agg := MIS2Aggregation(g, Options{})
		if err := Check(g, agg); err != nil {
			t.Fatal(err)
		}
		want := referenceCoarseGraph(g, agg)
		for _, th := range []int{1, 8} {
			got := coarseGraph(par.New(th), g, agg)
			if d := sameCSR(got, want); d != "" {
				t.Fatalf("%d workers: %s", th, d)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%d workers: %v", th, err)
			}
		}
	})
}
