// Package color implements greedy graph coloring: serial and parallel
// distance-1 coloring (used by the multicolor Gauss-Seidel preconditioners
// of §III-C) and serial and parallel distance-2 coloring (the Serial D2C /
// NB D2C aggregation baselines of §VI-F).
//
// The parallel algorithms are Jones-Plassmann style with fixed hash
// priorities: a vertex is colored once it holds the highest priority among
// its uncolored (distance-1 or distance-2) neighbors, receiving the
// smallest color unused in its neighborhood. Because priorities are a pure
// function of the vertex id, the result is deterministic for any worker
// count.
//
//amg:deterministic
package color

import (
	"fmt"
	"sync"

	"mis2go/internal/graph"
	"mis2go/internal/hash"
	"mis2go/internal/par"
)

// none marks an uncolored vertex.
const none int32 = -1

// Greedy colors g serially in vertex order with first-fit.
func Greedy(g *graph.CSR) []int32 {
	colors := make([]int32, g.N)
	for i := range colors {
		colors[i] = none
	}
	forbidden := make([]int32, g.N+1)
	for i := range forbidden {
		forbidden[i] = -1
	}
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if c := colors[w]; c != none {
				forbidden[c] = v
			}
		}
		colors[v] = firstFree(forbidden, v)
	}
	return colors
}

// GreedyDistance2 colors g serially so that no two vertices within
// distance 2 share a color.
func GreedyDistance2(g *graph.CSR) []int32 {
	colors := make([]int32, g.N)
	for i := range colors {
		colors[i] = none
	}
	forbidden := make([]int32, g.N+1)
	for i := range forbidden {
		forbidden[i] = -1
	}
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if c := colors[w]; c != none {
				forbidden[c] = v
			}
			for _, x := range g.Neighbors(w) {
				if x == v {
					continue
				}
				if c := colors[x]; c != none {
					forbidden[c] = v
				}
			}
		}
		colors[v] = firstFree(forbidden, v)
	}
	return colors
}

// firstFree returns the smallest color c >= 0 with forbidden[c] != v.
func firstFree(forbidden []int32, v int32) int32 {
	for c := int32(0); ; c++ {
		if forbidden[c] != v {
			return c
		}
	}
}

// Parallel colors g with a deterministic Jones-Plassmann iteration using
// the given worker count (0 = GOMAXPROCS).
func Parallel(g *graph.CSR, threads int) []int32 {
	return parallelColor(g, threads, false)
}

// ParallelDistance2 computes a deterministic parallel distance-2 coloring.
func ParallelDistance2(g *graph.CSR, threads int) []int32 {
	return parallelColor(g, threads, true)
}

func parallelColor(g *graph.CSR, threads int, dist2 bool) []int32 {
	rt := par.New(threads)
	n := g.N
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = none
	}
	if n == 0 {
		return colors
	}
	prio := make([]uint64, n)
	rt.For(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			prio[v] = hash.Xorshift64Star(uint64(v) + 1)
		}
	})
	higher := func(a, b int32) bool { // does a beat b?
		if prio[a] != prio[b] {
			return prio[a] > prio[b]
		}
		return a > b
	}

	wl := make([]int32, n)
	for i := range wl {
		wl[i] = int32(i)
	}
	next := make([]int32, n)          // colors assigned this round, applied at the barrier
	kept := make([]int, rt.Workers()) // still-uncolored vertices per block of a pass

	// Pool of per-worker forbidden-color scratch, stamped by vertex id.
	// Reuse across rounds is safe without resetting: a vertex stamps the
	// scratch only in the round it gets colored, so its stamps are never
	// consulted again.
	scratch := sync.Pool{New: func() any {
		f := make([]int32, n+1)
		for i := range f {
			f[i] = -1
		}
		return f
	}}

	for len(wl) > 0 {
		rt.For(len(wl), func(lo, hi int) {
			forbidden := scratch.Get().([]int32)
			defer scratch.Put(forbidden)
			for i := lo; i < hi; i++ {
				v := wl[i]
				next[v] = none
				isMax := true
				scan := func(w int32) bool {
					if colors[w] == none && higher(w, v) {
						return false
					}
					return true
				}
				for _, w := range g.Neighbors(v) {
					if !scan(w) {
						isMax = false
						break
					}
					if dist2 {
						for _, x := range g.Neighbors(w) {
							if x != v && !scan(x) {
								isMax = false
								break
							}
						}
						if !isMax {
							break
						}
					}
				}
				if !isMax {
					continue
				}
				for _, w := range g.Neighbors(v) {
					if c := colors[w]; c != none {
						forbidden[c] = v
					}
					if dist2 {
						for _, x := range g.Neighbors(w) {
							if x == v {
								continue
							}
							if c := colors[x]; c != none {
								forbidden[c] = v
							}
						}
					}
				}
				next[v] = firstFree(forbidden, v)
			}
		})
		// Apply this round's colors (barrier keeps reads/writes separate)
		// and compact wl in place: each block writes the vertices still
		// uncolored, in order, to the front of its own range.
		blocks := rt.Blocks(len(wl))
		rt.ForBlocks(len(blocks)-1, func(b int) {
			k := blocks[b]
			for i := blocks[b]; i < blocks[b+1]; i++ {
				v := wl[i]
				wl[k] = v
				if next[v] != none {
					colors[v] = next[v]
				} else {
					k++
				}
			}
			kept[b] = k - blocks[b]
		})
		wl = par.JoinSegments(wl, blocks, kept)
	}
	return colors
}

// NumColors returns 1 + the maximum color in the assignment (0 if empty).
func NumColors(colors []int32) int {
	m := int32(-1)
	for _, c := range colors {
		if c > m {
			m = c
		}
	}
	return int(m + 1)
}

// Sets groups vertices by color: Sets(colors)[c] lists the vertices of
// color c in ascending order. Deterministic.
func Sets(colors []int32) [][]int32 {
	nc := NumColors(colors)
	counts := make([]int, nc)
	for _, c := range colors {
		counts[c]++
	}
	sets := make([][]int32, nc)
	for c := range sets {
		sets[c] = make([]int32, 0, counts[c])
	}
	for v, c := range colors {
		sets[c] = append(sets[c], int32(v))
	}
	return sets
}

// Check verifies a distance-1 coloring: all vertices colored, no two
// adjacent vertices share a color.
func Check(g *graph.CSR, colors []int32) error {
	if len(colors) != g.N {
		return fmt.Errorf("color: %d colors for %d vertices", len(colors), g.N)
	}
	for v := int32(0); int(v) < g.N; v++ {
		if colors[v] < 0 {
			return fmt.Errorf("color: vertex %d uncolored", v)
		}
		for _, w := range g.Neighbors(v) {
			if colors[v] == colors[w] {
				return fmt.Errorf("color: adjacent vertices %d and %d share color %d", v, w, colors[v])
			}
		}
	}
	return nil
}
