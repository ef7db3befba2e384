// Package graph provides the compressed sparse row (CSR/CRS) graph
// representation used by every algorithm in this repository, together with
// construction, validation, and structural utilities (symmetrization,
// induced subgraphs, and the boolean square G² used by the MIS-1 reduction
// of Lemma IV.2).
//
//amg:deterministic
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mis2go/internal/par"
)

// CSR is an undirected graph in compressed sparse row format.
// Vertices are 0-based int32 ids. Self-loops are not stored; algorithms
// that need closed neighborhoods treat the vertex itself implicitly.
// Adjacency lists are sorted ascending and duplicate-free for a graph that
// passes Validate.
type CSR struct {
	N      int     // number of vertices
	RowPtr []int   // length N+1; RowPtr[v]..RowPtr[v+1] indexes Col
	Col    []int32 // length RowPtr[N]; neighbor lists
}

// NumEdges returns the number of stored directed arcs (2x undirected edges).
func (g *CSR) NumEdges() int { return len(g.Col) }

// Degree returns the number of neighbors of v.
func (g *CSR) Degree(v int32) int { return g.RowPtr[v+1] - g.RowPtr[v] }

// Neighbors returns the adjacency list of v. The returned slice aliases the
// graph's storage and must not be modified.
func (g *CSR) Neighbors(v int32) []int32 { return g.Col[g.RowPtr[v]:g.RowPtr[v+1]] }

// AvgDegree returns the mean vertex degree.
func (g *CSR) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(len(g.Col)) / float64(g.N)
}

// MaxDegree returns the maximum vertex degree.
func (g *CSR) MaxDegree() int {
	m := 0
	for v := 0; v < g.N; v++ {
		if d := g.RowPtr[v+1] - g.RowPtr[v]; d > m {
			m = d
		}
	}
	return m
}

// HasEdge reports whether (u, v) is an edge, by binary search.
func (g *CSR) HasEdge(u, v int32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Validate checks structural invariants: monotone row pointers, in-range
// sorted duplicate-free columns, no self-loops, and symmetry.
func (g *CSR) Validate() error {
	if g.N < 0 {
		return errors.New("graph: negative vertex count")
	}
	if len(g.RowPtr) != g.N+1 {
		return fmt.Errorf("graph: RowPtr length %d, want %d", len(g.RowPtr), g.N+1)
	}
	if g.RowPtr[0] != 0 {
		return errors.New("graph: RowPtr[0] != 0")
	}
	if g.RowPtr[g.N] != len(g.Col) {
		return fmt.Errorf("graph: RowPtr[N]=%d does not match len(Col)=%d", g.RowPtr[g.N], len(g.Col))
	}
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v] > g.RowPtr[v+1] {
			return fmt.Errorf("graph: RowPtr not monotone at %d", v)
		}
		adj := g.Neighbors(int32(v))
		for i, w := range adj {
			if w < 0 || int(w) >= g.N {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && adj[i-1] >= w {
				return fmt.Errorf("graph: row %d not sorted/duplicate-free", v)
			}
		}
	}
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: edge (%d,%d) has no reverse", v, w)
			}
		}
	}
	return nil
}

// Edge is an undirected edge for COO construction.
type Edge struct{ U, V int32 }

// FromEdges builds a CSR graph on n vertices from an undirected edge list.
// Each edge is inserted in both directions; duplicates and self-loops are
// dropped. The construction is deterministic.
func FromEdges(n int, edges []Edge) *CSR {
	deg := make([]int, n+1)
	for _, e := range edges {
		if e.U == e.V || e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			continue
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	rowPtr := make([]int, n+1)
	for v := 0; v < n; v++ {
		rowPtr[v+1] = rowPtr[v] + deg[v+1]
	}
	col := make([]int32, rowPtr[n])
	fill := make([]int, n)
	copy(fill, rowPtr[:n])
	for _, e := range edges {
		if e.U == e.V || e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			continue
		}
		col[fill[e.U]] = e.V
		fill[e.U]++
		col[fill[e.V]] = e.U
		fill[e.V]++
	}
	g := &CSR{N: n, RowPtr: rowPtr, Col: col}
	g.sortDedupe()
	return g
}

// sortDedupe sorts each adjacency list and removes duplicates, compacting
// the storage in place.
func (g *CSR) sortDedupe() {
	out := 0
	newRowPtr := make([]int, g.N+1)
	for v := 0; v < g.N; v++ {
		lo, hi := g.RowPtr[v], g.RowPtr[v+1]
		adj := g.Col[lo:hi]
		slices.Sort(adj)
		start := out
		for i, w := range adj {
			if i > 0 && adj[i-1] == w {
				continue
			}
			g.Col[out] = w
			out++
		}
		newRowPtr[v] = start
	}
	newRowPtr[g.N] = out
	// Shift starts: newRowPtr currently holds starts; convert to standard.
	g.RowPtr = newRowPtr
	g.Col = g.Col[:out]
}

// Square returns the graph whose edges connect vertices at distance 1 or 2
// in g (the boolean square of the adjacency matrix with self-loops,
// diagonal dropped), built by Collect on par.Default(). Used to verify
// MIS-2(G) == MIS-1(G²) (Lemma IV.2).
func (g *CSR) Square() *CSR {
	return Collect(par.Default(), g.N, g.N,
		func(lo, hi int) int { return g.RowPtr[hi] - g.RowPtr[lo] },
		func(i int, mark, buf []int32) []int32 {
			v := int32(i)
			mark[v] = v
			for _, w := range g.Neighbors(v) {
				if mark[w] != v {
					mark[w] = v
					buf = append(buf, w)
				}
				for _, x := range g.Neighbors(w) {
					if mark[x] != v {
						mark[x] = v
						buf = append(buf, x)
					}
				}
			}
			return buf
		})
}

// InducedSubgraph returns the subgraph induced by the vertices for which
// keep[v] is true, along with toSub (old id -> new id, -1 if dropped) and
// toOrig (new id -> old id). Used by Algorithm 3 phase 2.
//
// Every phase runs in parallel on rt: the id map is an exclusive scan
// over keep, then each kept row is counted, RowPtr is scanned from the
// counts, and each row is filled in place. Rows keep g's order, so the
// result is identical for any worker count.
func (g *CSR) InducedSubgraph(rt *par.Runtime, keep []bool) (sub *CSR, toSub []int32, toOrig []int32) {
	toSub = make([]int32, g.N)
	rt.For(g.N, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			toSub[v] = 0
			if keep[v] {
				toSub[v] = 1
			}
		}
	})
	m := par.ScanExclusive(rt, toSub, toSub)
	toOrig = make([]int32, m)
	rt.For(g.N, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if keep[v] {
				toOrig[toSub[v]] = int32(v)
			} else {
				toSub[v] = -1
			}
		}
	})
	rowPtr := make([]int, m+1)
	rt.For(int(m), func(lo, hi int) {
		for s := lo; s < hi; s++ {
			c := 0
			for _, w := range g.Neighbors(toOrig[s]) {
				if keep[w] {
					c++
				}
			}
			rowPtr[s] = c
		}
	})
	par.ScanExclusive(rt, rowPtr[:m], rowPtr)
	col := make([]int32, rowPtr[m])
	rt.For(int(m), func(lo, hi int) {
		for s := lo; s < hi; s++ {
			k := rowPtr[s]
			for _, w := range g.Neighbors(toOrig[s]) {
				if keep[w] {
					col[k] = toSub[w]
					k++
				}
			}
		}
	})
	return &CSR{N: int(m), RowPtr: rowPtr, Col: col}, toSub, toOrig
}

// DistanceLeq2 reports whether u and v are within distance 2 of each other
// (u != v). O(deg(u) * log deg) via adjacency binary searches.
func (g *CSR) DistanceLeq2(u, v int32) bool {
	if u == v {
		return true
	}
	if g.HasEdge(u, v) {
		return true
	}
	for _, w := range g.Neighbors(u) {
		if g.HasEdge(w, v) {
			return true
		}
	}
	return false
}
