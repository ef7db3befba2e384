// Luby's Monte Carlo Algorithm A for MIS-1, the distance-1 analogue of
// Algorithm 1 (paper §IV). When run on the boolean square G² with the same
// priority sequence, it must produce exactly the MIS-2 Algorithm 1 produces
// on G (Lemma IV.2) — the package tests assert this equivalence.
package mis

import (
	"mis2go/internal/graph"
	"mis2go/internal/hash"
	"mis2go/internal/par"
)

// LubyMIS1 computes a distance-1 maximal independent set of g using
// per-iteration priorities from the given hash kind. Deterministic.
func LubyMIS1(g *graph.CSR, kind hash.Kind, threads int) Result {
	rt := par.New(threads)
	n := g.N
	if n == 0 {
		return Result{InSet: []int32{}}
	}
	c := newCodec(n)
	t := make([]uint64, n)
	m := make([]uint64, n)
	wl := make([]int32, n)
	for i := range wl {
		wl[i] = int32(i)
	}
	kept := make([]int, rt.Workers()) // survivors per block of a pass

	iter := 0
	for len(wl) > 0 {
		it64 := uint64(iter)
		rt.For(len(wl), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := wl[i]
				t[v] = c.pack(kind.Priority(it64, uint64(v)), v)
			}
		})
		// One round of closed-neighborhood minima decides everything at
		// distance 1: v is IN if it holds the minimum, OUT if the minimum
		// is an IN vertex.
		rt.For(len(wl), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := wl[i]
				mv := t[v]
				for _, w := range g.Neighbors(v) {
					if tw := t[w]; tw < mv {
						mv = tw
					}
				}
				m[v] = mv
			}
		})
		// Settle v and compact wl in place: each block writes the vertices
		// still undecided, in order, to the front of its own range.
		blocks := rt.Blocks(len(wl))
		rt.ForBlocks(len(blocks)-1, func(b int) {
			k := blocks[b]
			for i := blocks[b]; i < blocks[b+1]; i++ {
				v := wl[i]
				if m[v] == t[v] {
					t[v] = tupleIn
				} else if m[v] == tupleIn {
					t[v] = tupleOut
				}
				wl[k] = v
				if isUndecided(t[v]) {
					k++
				}
			}
			kept[b] = k - blocks[b]
		})
		wl = par.JoinSegments(wl, blocks, kept)
		iter++
	}
	return Result{InSet: collectIn(rt, t, n), Iterations: iter}
}
