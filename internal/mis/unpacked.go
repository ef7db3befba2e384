// Unpacked-tuple variant of Algorithm 1: identical structure (worklists,
// per-iteration priorities, k=2-specialized column minimum) but with the
// baseline's 3-field tuple representation instead of packed integers.
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

	rt.For(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			t.stat[v] = statUnd
			t.id[v] = int32(v)
		}
	})

	iter := 0
	for len(wl1) > 0 {
		it64 := uint64(iter)

		// Refresh Row.
		rt.For(len(wl1), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := wl1[i]
				t.rnd[v] = kind.Priority(it64, uint64(v)) & prioMask
			}
		})

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

		// Decide Set; undecided vertices stay in wl1.
		blocks = rt.Blocks(len(wl1))
		rt.ForBlocks(len(blocks)-1, func(b int) {
			k := blocks[b]
			for i := blocks[b]; i < blocks[b+1]; i++ {
				v := wl1[i]
				anyOut := m.stat[v] == statOut
				allEq := !anyOut && m.id[v] == v && m.rnd[v] == t.rnd[v] && m.stat[v] == statUnd
				if !anyOut {
					for _, w := range g.Neighbors(v) {
						if m.stat[w] == statOut {
							anyOut = true
							break
						}
						if m.id[w] != v || m.rnd[w] != t.rnd[v] || m.stat[w] != statUnd {
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
