// Package mis implements the paper's core contribution: the parallel,
// deterministic distance-2 maximal independent set algorithm (Algorithm 1)
// with its four optimizations, the Bell/Dalton/Olson baseline it is
// compared against (the algorithm implemented by CUSP and ViennaCL),
// Luby's MIS-1, and validity checkers.
//
//amg:deterministic
package mis

import (
	"mis2go/internal/graph"
	"mis2go/internal/hash"
	"mis2go/internal/par"
)

// MinSIMDDegree is the average-degree threshold above which the unrolled
// ("SIMD") inner loops are used, matching the paper's GPU heuristic of 16.
const MinSIMDDegree = 16.0

// Options configures MIS2. The zero value selects the production
// configuration used for all paper experiments outside Table I:
// xorshift* per-iteration priorities, all optimizations on, GOMAXPROCS
// workers.
type Options struct {
	// Hash selects the priority scheme (Table I): XorStar (default), Xor,
	// or Fixed.
	Hash hash.Kind
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int
	// CollectStats records per-iteration worklist sizes in
	// Result.Worklist1/Worklist2 (diagnostics for the §V-B worklist
	// optimization; small overhead).
	CollectStats bool
}

// Result reports the outcome of an MIS-2 computation.
type Result struct {
	// InSet lists the vertices in the MIS-2, ascending.
	InSet []int32
	// Iterations is the number of Refresh/Decide rounds executed
	// (the loop trip count of Algorithm 1, as counted in Tables I and III).
	Iterations int
	// Worklist1 and Worklist2 hold the worklist sizes entering each
	// iteration when Options.CollectStats is set: Worklist1[i] counts
	// undecided vertices, Worklist2[i] vertices whose column status can
	// still change. Both are nil otherwise.
	Worklist1, Worklist2 []int
}

// MIS2 computes a distance-2 maximal independent set of g using
// Algorithm 1 with all four optimizations (per-iteration xorshift*
// priorities, dual worklists compacted inside the passes that decide
// their survivors, packed status tuples, and unrolled inner loops on
// high-degree graphs).
//
// The result is deterministic: for a given graph and Options.Hash it is
// identical for every thread count and across runs.
func MIS2(g *graph.CSR, opt Options) Result {
	rt := par.New(opt.Threads)
	return mis2Packed(g, opt.Hash, g.AvgDegree() >= MinSIMDDegree, opt.CollectStats, rt)
}

// mis2Packed is Algorithm 1 with packed tuples and worklists.
// When simd is true the neighbor reductions use 4-way unrolled loops
// (this repository's substitute for warp-level SIMD; see DESIGN.md).
//
// Each round is two parallel passes. Algorithm 1's Refresh Row is folded
// into the pass before it: the worklist-init pass writes round 0's
// tuples, and Decide Set writes the next round's tuple of every vertex it
// leaves undecided. Decide Set reads t only at its own vertex, so that
// write is invisible inside the pass, and the next Refresh Column reads
// it after the barrier: the set, the round count and the worklists are
// those of the three-pass rounds.
//
// The worklists are compacted in place (Algorithm 1, lines 33-34) by the
// two passes that settle their predicates: Refresh Column drops the
// vertices whose column status became OUT from wl2, Decide Set the
// vertices it decided from wl1 (see par.JoinSegments).
//
// All O(n) state (status arrays and both worklists) comes from a scratch
// arena, so repeated MIS-2 calls — coarsen.MIS2Aggregation runs up to
// two per AMG level and per gs.NewCluster setup — reuse the same backing
// memory.
func mis2Packed(g *graph.CSR, kind hash.Kind, simd, collectStats bool, rt *par.Runtime) Result {
	n := g.N
	if n == 0 {
		return Result{InSet: []int32{}}
	}
	var stats1, stats2 []int
	c := newCodec(n)
	rowPtr, col := g.RowPtr, g.Col
	ar := par.AcquireArena()
	t := par.Get[uint64](ar, n) // row status  T_v
	m := par.Get[uint64](ar, n) // col status  M_v
	wl1 := par.Get[int32](ar, n)
	wl2 := par.Get[int32](ar, n)
	// kept[b] counts block b's survivors; a pass has at most one block
	// per worker.
	kept := par.Get[int](ar, rt.Workers())
	rt.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := int32(i)
			wl1[i] = v
			wl2[i] = v
			t[i] = c.pack(kind.Priority(0, uint64(i)), v)
		}
	})

	iter := 0
	for len(wl1) > 0 {
		if collectStats {
			stats1 = append(stats1, len(wl1))
			stats2 = append(stats2, len(wl2))
		}
		// In round 0 no tuple is IN, so no column status is OUT and
		// Decide Set only tests whether v's tuple is its closed
		// neighborhood's minimum everywhere.
		first := iter == 0
		next := uint64(iter + 1)

		// Refresh Column: M_v = min T_w over the closed neighborhood of v;
		// a minimum of IN means v is distance-1 from an IN vertex, which
		// permanently forces M_v = OUT and drops v from wl2. Each block
		// reads its bounds and worklist into locals once: blocks, wl1 and
		// wl2 are reassigned every round, so the closures capture them by
		// reference.
		blocks := rt.Blocks(len(wl2))
		if simd {
			rt.ForBlocks(len(blocks)-1, func(b int) {
				lo, hi, wl := blocks[b], blocks[b+1], wl2
				k := lo
				for i := lo; i < hi; i++ {
					v := wl[i]
					mv := minClosedUnrolled(g, t, v)
					if mv == tupleIn {
						mv = tupleOut
					}
					m[v] = mv
					wl[k] = v
					if mv != tupleOut {
						k++
					}
				}
				kept[b] = k - lo
			})
		} else {
			rt.ForBlocks(len(blocks)-1, func(b int) {
				lo, hi, wl := blocks[b], blocks[b+1], wl2
				k := lo
				for i := lo; i < hi; i++ {
					v := wl[i]
					mv := t[v]
					for _, w := range col[rowPtr[v]:rowPtr[v+1]] {
						if tw := t[w]; tw < mv {
							mv = tw
						}
					}
					if mv == tupleIn {
						mv = tupleOut
					}
					m[v] = mv
					wl[k] = v
					if mv != tupleOut {
						k++
					}
				}
				kept[b] = k - lo
			})
		}
		wl2 = par.JoinSegments(wl2, blocks, kept)

		// Decide Set: v is OUT if any closed neighbor's column status is
		// OUT (an IN vertex within distance 2); v is IN if its own tuple
		// is the minimum everywhere in its closed neighborhood, i.e. the
		// minimum of its radius-2 ball. Vertices still undecided stay in
		// wl1 and get the next round's tuple.
		blocks = rt.Blocks(len(wl1))
		if simd {
			rt.ForBlocks(len(blocks)-1, func(b int) {
				lo, hi, wl := blocks[b], blocks[b+1], wl1
				k := lo
				for i := lo; i < hi; i++ {
					v := wl[i]
					wl[k] = v
					if decideUnrolled(g, t, m, v, first) {
						t[v] = c.pack(kind.Priority(next, uint64(v)), v)
						k++
					}
				}
				kept[b] = k - lo
			})
		} else {
			rt.ForBlocks(len(blocks)-1, func(b int) {
				lo, hi, wl := blocks[b], blocks[b+1], wl1
				k := lo
				for i := lo; i < hi; i++ {
					v := wl[i]
					tv := t[v]
					anyOut := m[v] == tupleOut
					allEq := m[v] == tv
					adj := col[rowPtr[v]:rowPtr[v+1]]
					if first {
						for j := 0; allEq && j < len(adj); j++ {
							allEq = m[adj[j]] == tv
						}
					} else if !anyOut {
						for _, w := range adj {
							mw := m[w]
							if mw == tupleOut {
								anyOut = true
								break
							}
							if mw != tv {
								allEq = false
							}
						}
					}
					wl[k] = v
					if anyOut {
						t[v] = tupleOut
					} else if allEq {
						t[v] = tupleIn
					} else {
						t[v] = c.pack(kind.Priority(next, uint64(v)), v)
						k++
					}
				}
				kept[b] = k - lo
			})
		}
		wl1 = par.JoinSegments(wl1, blocks, kept)
		iter++
	}

	in := collectIn(rt, t, n)
	par.Put(ar, t)
	par.Put(ar, m)
	par.Put(ar, wl1) // compaction shortens a worklist, never its capacity
	par.Put(ar, wl2)
	par.Put(ar, kept)
	par.ReleaseArena(ar)
	return Result{InSet: in, Iterations: iter, Worklist1: stats1, Worklist2: stats2}
}

// collectIn gathers the vertices whose row status is IN, ascending, with
// a block-counted two-pass scan (no scratch arrays proportional to n
// beyond the result).
func collectIn(rt *par.Runtime, t []uint64, n int) []int32 {
	blocks := rt.Blocks(n)
	nb := len(blocks) - 1
	ar := par.AcquireArena()
	counts := par.Get[int](ar, nb)
	offsets := par.Get[int](ar, nb+1)
	rt.ForBlocks(nb, func(b int) {
		c := 0
		for v := blocks[b]; v < blocks[b+1]; v++ {
			if t[v] == tupleIn {
				c++
			}
		}
		counts[b] = c
	})
	total := 0
	for b := 0; b < nb; b++ {
		offsets[b] = total
		total += counts[b]
	}
	offsets[nb] = total
	out := make([]int32, total)
	rt.ForBlocks(nb, func(b int) {
		k := offsets[b]
		for v := blocks[b]; v < blocks[b+1]; v++ {
			if t[v] == tupleIn {
				out[k] = int32(v)
				k++
			}
		}
	})
	par.Put(ar, counts)
	par.Put(ar, offsets)
	par.ReleaseArena(ar)
	return out
}

// minClosedUnrolled computes min(T_w) over the closed neighborhood of v
// with a 4-way unrolled loop, the CPU analogue of the paper's warp-level
// SIMD reduction over the contiguous CRS adjacency list.
func minClosedUnrolled(g *graph.CSR, t []uint64, v int32) uint64 {
	adj := g.Neighbors(v)
	m0, m1, m2, m3 := t[v], tupleOut, tupleOut, tupleOut
	i := 0
	for ; i+4 <= len(adj); i += 4 {
		if x := t[adj[i]]; x < m0 {
			m0 = x
		}
		if x := t[adj[i+1]]; x < m1 {
			m1 = x
		}
		if x := t[adj[i+2]]; x < m2 {
			m2 = x
		}
		if x := t[adj[i+3]]; x < m3 {
			m3 = x
		}
	}
	for ; i < len(adj); i++ {
		if x := t[adj[i]]; x < m0 {
			m0 = x
		}
	}
	if m1 < m0 {
		m0 = m1
	}
	if m3 < m2 {
		m2 = m3
	}
	if m2 < m0 {
		m0 = m2
	}
	return m0
}

// decideUnrolled applies the Decide Set rules for v using 4-way unrolled
// scans for the exists-OUT and forall-equal reductions, writes IN or OUT
// to t[v] if it decides v, and reports whether v is still undecided. With
// first set (round 0, when no column status can be OUT) it runs only the
// forall-equal scan and stops at the first mismatch.
func decideUnrolled(g *graph.CSR, t, m []uint64, v int32, first bool) bool {
	tv := t[v]
	mv := m[v]
	adj := g.Neighbors(v)
	if first {
		if mv != tv {
			return true
		}
		i := 0
		for ; i+4 <= len(adj); i += 4 {
			if m[adj[i]] != tv || m[adj[i+1]] != tv || m[adj[i+2]] != tv || m[adj[i+3]] != tv {
				return true
			}
		}
		for ; i < len(adj); i++ {
			if m[adj[i]] != tv {
				return true
			}
		}
		t[v] = tupleIn
		return false
	}
	if mv == tupleOut {
		t[v] = tupleOut
		return false
	}
	anyOut := false
	allEq := mv == tv
	i := 0
	for ; i+4 <= len(adj); i += 4 {
		a, b, c, d := m[adj[i]], m[adj[i+1]], m[adj[i+2]], m[adj[i+3]]
		if a == tupleOut || b == tupleOut || c == tupleOut || d == tupleOut {
			anyOut = true
			break
		}
		if a != tv || b != tv || c != tv || d != tv {
			allEq = false
		}
	}
	if !anyOut {
		for ; i < len(adj); i++ {
			mw := m[adj[i]]
			if mw == tupleOut {
				anyOut = true
				break
			}
			if mw != tv {
				allEq = false
			}
		}
	}
	if anyOut {
		t[v] = tupleOut
		return false
	}
	if allEq {
		t[v] = tupleIn
		return false
	}
	return true
}
