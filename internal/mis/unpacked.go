// Unpacked-tuple variant of Algorithm 1: identical structure (worklists,
// per-iteration priorities, k=2-specialized column minimum, two passes
// per round) but with the baseline's 3-field tuple representation
// instead of packed integers.
// This is the "+ Worklists" configuration of the Figure 2 ablation: it
// isolates the benefit of packed status tuples, which is added next.
package mis

import (
	"mis2go/internal/graph"
	"mis2go/internal/hash"
	"mis2go/internal/par"
)

// mis2Unpacked runs Algorithm 1 with struct-of-arrays tuples.
func mis2Unpacked(g *graph.CSR, kind hash.Kind, rt *par.Runtime) Result {
	n := g.N
	if n == 0 {
		return Result{InSet: []int32{}}
	}
	// Truncate priorities exactly as the packed codec does, so that the
	// unpacked and packed rungs of the ablation produce bit-identical
	// result sets (only their speed differs).
	prioMask := ^uint64(0) >> newCodec(n).idBits
	t := newTriple(n)
	m := newTriple(n)
	wl1 := make([]int32, n)
	wl2 := make([]int32, n)
	for i := range wl1 {
		wl1[i] = int32(i)
		wl2[i] = int32(i)
	}
	kept := make([]int, rt.Workers())

	// Rounds are two passes, as in mis2Packed: this pass writes round 0's
	// priorities and Decide Set the next round's priority of every
	// vertex it leaves undecided.
	rt.For(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			t.stat[v] = statUnd
			t.id[v] = int32(v)
			t.rnd[v] = kind.Priority(0, uint64(v)) & prioMask
		}
	})

	iter := 0
	for len(wl1) > 0 {
		first := iter == 0 // no column status can be OUT yet
		next := uint64(iter + 1)

		// Refresh Column: minimum tuple over closed neighborhood;
		// IN minima freeze to OUT and leave wl2.
		blocks := rt.Blocks(len(wl2))
		rt.ForBlocks(len(blocks)-1, func(b int) {
			k := blocks[b]
			for i := blocks[b]; i < blocks[b+1]; i++ {
				v := wl2[i]
				best := v
				for _, w := range g.Neighbors(v) {
					if tupleLess(t, w, t, best) {
						best = w
					}
				}
				if t.stat[best] == statIn {
					m.stat[v] = statOut
					m.rnd[v] = ^uint64(0)
					m.id[v] = int32(n) // sentinel greater than any id
				} else {
					tupleAssign(m, v, t, best)
				}
				wl2[k] = v
				if m.stat[v] != statOut {
					k++
				}
			}
			kept[b] = k - blocks[b]
		})
		wl2 = par.JoinSegments(wl2, blocks, kept)

		// Decide Set; undecided vertices stay in wl1 with the next
		// round's priority.
		blocks = rt.Blocks(len(wl1))
		rt.ForBlocks(len(blocks)-1, func(b int) {
			k := blocks[b]
			for i := blocks[b]; i < blocks[b+1]; i++ {
				v := wl1[i]
				rv := t.rnd[v]
				anyOut := m.stat[v] == statOut
				allEq := !anyOut && m.id[v] == v && m.rnd[v] == rv && m.stat[v] == statUnd
				adj := g.Neighbors(v)
				if first {
					for j := 0; allEq && j < len(adj); j++ {
						w := adj[j]
						allEq = m.id[w] == v && m.rnd[w] == rv && m.stat[w] == statUnd
					}
				} else if !anyOut {
					for _, w := range adj {
						if m.stat[w] == statOut {
							anyOut = true
							break
						}
						if m.id[w] != v || m.rnd[w] != rv || m.stat[w] != statUnd {
							allEq = false
						}
					}
				}
				wl1[k] = v
				if anyOut {
					t.stat[v] = statOut
				} else if allEq {
					t.stat[v] = statIn
				} else {
					t.rnd[v] = kind.Priority(next, uint64(v)) & prioMask
					k++
				}
			}
			kept[b] = k - blocks[b]
		})
		wl1 = par.JoinSegments(wl1, blocks, kept)
		iter++
	}

	in := make([]int32, 0, n/16+1)
	for v := 0; v < n; v++ {
		if t.stat[v] == statIn {
			in = append(in, int32(v))
		}
	}
	return Result{InSet: in, Iterations: iter}
}
