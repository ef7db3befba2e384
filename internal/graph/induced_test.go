package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/par"
)

// referenceInducedSubgraph builds the induced subgraph serially, in one
// pass per array. It is the oracle for InducedSubgraph.
func referenceInducedSubgraph(g *graph.CSR, keep []bool) (sub *graph.CSR, toSub []int32, toOrig []int32) {
	toSub = make([]int32, g.N)
	m := int32(0)
	for v := 0; v < g.N; v++ {
		if keep[v] {
			toSub[v] = m
			m++
		} else {
			toSub[v] = -1
		}
	}
	toOrig = make([]int32, m)
	for v := 0; v < g.N; v++ {
		if keep[v] {
			toOrig[toSub[v]] = int32(v)
		}
	}
	rowPtr := make([]int, m+1)
	for s := int32(0); s < m; s++ {
		c := 0
		for _, w := range g.Neighbors(toOrig[s]) {
			if keep[w] {
				c++
			}
		}
		rowPtr[s+1] = rowPtr[s] + c
	}
	col := make([]int32, rowPtr[m])
	for s := int32(0); s < m; s++ {
		k := rowPtr[s]
		for _, w := range g.Neighbors(toOrig[s]) {
			if keep[w] {
				col[k] = toSub[w]
				k++
			}
		}
	}
	return &graph.CSR{N: int(m), RowPtr: rowPtr, Col: col}, toSub, toOrig
}

func TestInducedSubgraphBitwiseMatchesReference(t *testing.T) {
	isolated := gen.Laplace3D(12, 12, 12)
	var edges []graph.Edge
	for v := int32(0); int(v) < isolated.N; v++ {
		for _, w := range isolated.Neighbors(v) {
			edges = append(edges, graph.Edge{U: 2 * v, V: 2 * w})
		}
	}
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"laplace3d", gen.Laplace3D(20, 20, 20)},
		{"elasticity3d", gen.Elasticity3D(5, 5, 5, 3)},
		{"erdos-renyi", gen.ErdosRenyi(4000, 12000, 5)},
		{"isolated", graph.FromEdges(2*isolated.N, edges)},
		{"empty", graph.FromEdges(0, nil)},
	}
	for _, tc := range graphs {
		g := tc.g
		rng := rand.New(rand.NewSource(int64(g.N)))
		none, all, random, sparse := make([]bool, g.N), make([]bool, g.N), make([]bool, g.N), make([]bool, g.N)
		for v := range all {
			all[v] = true
			random[v] = rng.Intn(2) == 0
			sparse[v] = rng.Intn(50) == 0
		}
		masks := []struct {
			name string
			keep []bool
		}{{"none", none}, {"all", all}, {"random", random}, {"sparse", sparse}}
		for _, mk := range masks {
			wantSub, wantToSub, wantToOrig := referenceInducedSubgraph(g, mk.keep)
			for _, th := range []int{1, 2, 8} {
				sub, toSub, toOrig := g.InducedSubgraph(par.New(th), mk.keep)
				name := fmt.Sprintf("%s/%s at %d workers", tc.name, mk.name, th)
				switch {
				case sub.N != wantSub.N:
					t.Fatalf("%s: N = %d, want %d", name, sub.N, wantSub.N)
				case !slices.Equal(sub.RowPtr, wantSub.RowPtr):
					t.Fatalf("%s: RowPtr differs", name)
				case !slices.Equal(sub.Col, wantSub.Col):
					t.Fatalf("%s: Col differs", name)
				case !slices.Equal(toSub, wantToSub):
					t.Fatalf("%s: toSub differs", name)
				case !slices.Equal(toOrig, wantToOrig):
					t.Fatalf("%s: toOrig differs", name)
				}
			}
		}
	}
}
