// Package coarsen implements the paper's graph coarsening (aggregation)
// algorithms:
//
//   - Basic (Algorithm 2): MIS-2 vertices become aggregate roots, roots
//     absorb their neighbors, leftovers join an adjacent aggregate
//     arbitrarily. The scheme of Bell et al. used by CUSP and ViennaCL.
//   - MIS2Aggregation (Algorithm 3): a parallel, deterministic version of
//     ML's two-phase MIS-2 aggregation with coupling-based cleanup.
//   - SerialGreedy: a sequential aggregation in the spirit of MueLu's
//     original "Serial Agg" (§VI-F baseline).
//   - D2C: distance-2-coloring-based aggregation, the "Serial D2C" /
//     "NB D2C" baselines of §VI-F (serial or parallel coloring).
//
// All parallel phases write only vertex-owned slots or use snapshot
// ("tentative") labels, so every scheme here is deterministic for any
// worker count.
//
//amg:deterministic
package coarsen

import (
	"fmt"
	"math"

	"mis2go/internal/color"
	"mis2go/internal/graph"
	"mis2go/internal/mis"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// unaggregated marks a vertex not yet assigned to an aggregate.
const unaggregated int32 = -1

// Aggregation is a partition of the vertices into aggregates.
type Aggregation struct {
	// Labels[v] is the aggregate id of vertex v, in [0, NumAggregates).
	Labels []int32
	// NumAggregates is the number of aggregates.
	NumAggregates int
	// Roots lists the aggregate root vertices where the scheme defines
	// them (one per aggregate for MIS-2 based schemes).
	Roots []int32
}

// Options configures the MIS-2 based aggregation schemes.
type Options struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// MIS selects options for the inner MIS-2 computations.
	MIS mis.Options
}

// Basic is Algorithm 2: simple MIS-2 coarsening as in Bell et al.
func Basic(g *graph.CSR, opt Options) Aggregation {
	opt.MIS.Threads = opt.Threads
	roots := mis.MIS2(g, opt.MIS).InSet
	return BasicFromRoots(g, roots, opt.Threads)
}

// BasicFromRoots runs Algorithm 2's aggregation phases from an
// already-computed MIS-2 (any implementation's — used to reproduce the
// ViennaCL pipeline, which couples Bell's MIS-2 with this coarsening).
func BasicFromRoots(g *graph.CSR, roots []int32, threads int) Aggregation {
	rt := par.New(threads)
	labels := make([]int32, g.N)
	for i := range labels {
		labels[i] = unaggregated
	}
	// Roots and their neighbors form the initial aggregates. Root
	// neighborhoods are disjoint by distance-2 independence.
	rt.For(len(roots), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := roots[i]
			labels[r] = int32(i)
			for _, w := range g.Neighbors(r) {
				labels[w] = int32(i)
			}
		}
	})
	// Leftovers join an adjacent aggregate; "arbitrarily" in the paper,
	// here deterministically the minimum adjacent label from the phase-1
	// snapshot. Every leftover is at distance exactly 2 from a root, so
	// it has an aggregated neighbor.
	tent := append([]int32(nil), labels...)
	rt.For(g.N, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if tent[v] != unaggregated {
				continue
			}
			best := unaggregated
			for _, w := range g.Neighbors(int32(v)) {
				if a := tent[w]; a != unaggregated && (best == unaggregated || a < best) {
					best = a
				}
			}
			labels[v] = best
		}
	})
	agg := Aggregation{Labels: labels, NumAggregates: len(roots), Roots: roots}
	finalizeSingletons(g, &agg)
	return agg
}

// MIS2Aggregation is Algorithm 3: two-phase MIS-2 aggregation with
// coupling-based cleanup, the parallel deterministic equivalent of ML's
// sequential scheme.
func MIS2Aggregation(g *graph.CSR, opt Options) Aggregation {
	opt.MIS.Threads = opt.Threads
	rt := par.New(opt.Threads)

	// Phase 1: initial aggregates from MIS-2 roots and their neighbors.
	m1 := mis.MIS2(g, opt.MIS).InSet
	labels := make([]int32, g.N)
	for i := range labels {
		labels[i] = unaggregated
	}
	rt.For(len(m1), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := m1[i]
			labels[r] = int32(i)
			for _, w := range g.Neighbors(r) {
				labels[w] = int32(i)
			}
		}
	})
	numAgg := len(m1)
	roots := append([]int32(nil), m1...)

	// Phase 2: a second MIS-2 on the subgraph induced by unaggregated
	// vertices; its members become roots only if they still have at least
	// 2 unaggregated neighbors (smaller aggregates would increase fill-in
	// during smoothing).
	keep := make([]bool, g.N)
	left := par.ReduceSum(rt, g.N, func(v int) int {
		keep[v] = labels[v] == unaggregated
		if keep[v] {
			return 1
		}
		return 0
	})
	if left > 0 {
		sub, _, toOrig := g.InducedSubgraph(rt, keep)
		m2 := mis.MIS2(sub, opt.MIS).InSet

		qualified := make([]int, len(m2))
		rt.For(len(m2), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r := toOrig[m2[i]]
				cnt := 0
				for _, w := range g.Neighbors(r) {
					if labels[w] == unaggregated {
						cnt++
					}
				}
				if cnt >= 2 {
					qualified[i] = 1
				}
			}
		})
		offsets := make([]int, len(m2)+1)
		newAggs := par.ScanExclusive(rt, qualified, offsets)
		rt.For(len(m2), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if qualified[i] == 0 {
					continue
				}
				r := toOrig[m2[i]]
				id := int32(numAgg + offsets[i])
				labels[r] = id
				for _, w := range g.Neighbors(r) {
					if labels[w] == unaggregated {
						labels[w] = id
					}
				}
			}
		})
		for i, q := range qualified {
			if q == 1 {
				roots = append(roots, toOrig[m2[i]])
			}
		}
		numAgg += int(newAggs)
	}

	// Phase 3: cleanup. Aggregate sizes and couplings are computed from
	// the tentative labels saved here, which stay constant during the
	// phase — this is what makes the cleanup deterministic.
	tent := append([]int32(nil), labels...)
	aggSize := make([]int32, numAgg)
	for _, a := range tent {
		if a != unaggregated {
			aggSize[a]++
		}
	}
	rt.For(g.N, func(lo, hi int) {
		// Per-worker scratch for adjacent aggregate labels and counts.
		var la []int32
		var ct []int32
		for v := lo; v < hi; v++ {
			if tent[v] != unaggregated {
				continue
			}
			la = la[:0]
			ct = ct[:0]
			for _, w := range g.Neighbors(int32(v)) {
				a := tent[w]
				if a == unaggregated {
					continue
				}
				found := false
				for j, l := range la {
					if l == a {
						ct[j]++
						found = true
						break
					}
				}
				if !found {
					la = append(la, a)
					ct = append(ct, 1)
				}
			}
			best := unaggregated
			var bestC, bestS int32
			for j, a := range la {
				c, s := ct[j], aggSize[a]
				if best == unaggregated || c > bestC ||
					(c == bestC && (s < bestS || (s == bestS && a < best))) {
					best, bestC, bestS = a, c, s
				}
			}
			labels[v] = best
		}
	})
	agg := Aggregation{Labels: labels, NumAggregates: numAgg, Roots: roots}
	finalizeSingletons(g, &agg)
	return agg
}

// finalizeSingletons assigns fresh aggregate ids to any vertices that are
// still unaggregated (possible only in disconnected corner cases, e.g.
// isolated vertices were already handled as MIS-2 roots, but a defensive
// sweep keeps every scheme total). Serial and deterministic.
func finalizeSingletons(g *graph.CSR, agg *Aggregation) {
	for v := 0; v < g.N; v++ {
		if agg.Labels[v] == unaggregated {
			agg.Labels[v] = int32(agg.NumAggregates)
			agg.NumAggregates++
			agg.Roots = append(agg.Roots, int32(v))
		}
	}
}

// SerialGreedy is a sequential uncoupled aggregation in the spirit of
// MueLu's original host-only scheme ("Serial Agg" in Table V): a first
// pass makes a root of every vertex whose whole neighborhood is
// unaggregated; following passes join leftovers to the adjacent aggregate
// with the strongest coupling; stranded vertices become singletons.
func SerialGreedy(g *graph.CSR) Aggregation {
	labels := make([]int32, g.N)
	for i := range labels {
		labels[i] = unaggregated
	}
	numAgg := 0
	var roots []int32
	for v := int32(0); int(v) < g.N; v++ {
		if labels[v] != unaggregated {
			continue
		}
		free := true
		for _, w := range g.Neighbors(v) {
			if labels[w] != unaggregated {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		id := int32(numAgg)
		numAgg++
		roots = append(roots, v)
		labels[v] = id
		for _, w := range g.Neighbors(v) {
			labels[w] = id
		}
	}
	// Join leftovers to the most-coupled adjacent aggregate, sweeping
	// until stable.
	for changed := true; changed; {
		changed = false
		for v := int32(0); int(v) < g.N; v++ {
			if labels[v] != unaggregated {
				continue
			}
			best := unaggregated
			bestC := 0
			for _, w := range g.Neighbors(v) {
				a := labels[w]
				if a == unaggregated {
					continue
				}
				c := 0
				for _, u := range g.Neighbors(v) {
					if labels[u] == a {
						c++
					}
				}
				if c > bestC || (c == bestC && best != unaggregated && a < best) {
					best, bestC = a, c
				}
			}
			if best != unaggregated {
				labels[v] = best
				changed = true
			}
		}
	}
	agg := Aggregation{Labels: labels, NumAggregates: numAgg, Roots: roots}
	finalizeSingletons(g, &agg)
	return agg
}

// D2C is distance-2-coloring based aggregation (the Serial D2C and NB D2C
// baselines): color the graph at distance 2, then process color classes in
// order; same-colored vertices have disjoint neighborhoods, so roots of
// one color aggregate in parallel without conflicts. parallelColoring
// selects the device ("NB") coloring; otherwise the serial coloring is
// used, as in MueLu's reverse-offload path.
func D2C(g *graph.CSR, threads int, parallelColoring bool) Aggregation {
	rt := par.New(threads)
	var colors []int32
	if parallelColoring {
		colors = color.ParallelDistance2(g, threads)
	} else {
		colors = color.GreedyDistance2(g)
	}
	sets := color.Sets(colors)

	labels := make([]int32, g.N)
	for i := range labels {
		labels[i] = unaggregated
	}
	numAgg := 0
	var roots []int32
	qualified := make([]int, g.N)
	offsets := make([]int, g.N+1)
	for _, set := range sets {
		// Roots of this color: unaggregated with >= 2 unaggregated
		// neighbors (same threshold as Algorithm 3 phase 2).
		q := qualified[:len(set)]
		rt.For(len(set), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := set[i]
				q[i] = 0
				if labels[v] != unaggregated {
					continue
				}
				cnt := 0
				for _, w := range g.Neighbors(v) {
					if labels[w] == unaggregated {
						cnt++
					}
				}
				if cnt >= 2 {
					q[i] = 1
				}
			}
		})
		off := offsets[:len(set)+1]
		newAggs := par.ScanExclusive(rt, q, off)
		rt.For(len(set), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if q[i] == 0 {
					continue
				}
				v := set[i]
				id := int32(numAgg + off[i])
				labels[v] = id
				for _, w := range g.Neighbors(v) {
					if labels[w] == unaggregated {
						labels[w] = id
					}
				}
			}
		})
		for i := range set {
			if q[i] == 1 {
				roots = append(roots, set[i])
			}
		}
		numAgg += int(newAggs)
	}
	// Leftovers: join by max coupling against a snapshot, sweeping until
	// stable; stranded clusters become singletons via finalize.
	for {
		tent := append([]int32(nil), labels...)
		changed := par.ReduceSum[int64](rt, g.N, func(v int) int64 {
			if tent[v] != unaggregated {
				return 0
			}
			best := unaggregated
			bestC := 0
			for _, w := range g.Neighbors(int32(v)) {
				a := tent[w]
				if a == unaggregated {
					continue
				}
				c := 0
				for _, u := range g.Neighbors(int32(v)) {
					if tent[u] == a {
						c++
					}
				}
				if c > bestC || (c == bestC && best != unaggregated && a < best) {
					best, bestC = a, c
				}
			}
			if best == unaggregated {
				return 0
			}
			labels[v] = best
			return 1
		})
		if changed == 0 {
			break
		}
	}
	agg := Aggregation{Labels: labels, NumAggregates: numAgg, Roots: roots}
	finalizeSingletons(g, &agg)
	return agg
}

// Check verifies that the aggregation is total and well-formed: one
// label per vertex, every label in range, and every aggregate nonempty.
// It does not check that aggregates are connected: Check runs on every
// AMG build and every standalone cluster Gauss-Seidel setup
// (gs.NewCluster), so it stays O(N). Connectivity of the schemes here is
// a tested property instead.
func Check(g *graph.CSR, agg Aggregation) error {
	if len(agg.Labels) != g.N {
		return fmt.Errorf("coarsen: %d labels for %d vertices", len(agg.Labels), g.N)
	}
	size := make([]int, agg.NumAggregates)
	for v, a := range agg.Labels {
		if a < 0 || int(a) >= agg.NumAggregates {
			return fmt.Errorf("coarsen: vertex %d has label %d out of range", v, a)
		}
		size[a]++
	}
	for a, s := range size {
		if s == 0 {
			return fmt.Errorf("coarsen: aggregate %d is empty", a)
		}
	}
	return nil
}

// Sizes returns the vertex count of each aggregate.
func Sizes(agg Aggregation) []int {
	s := make([]int, agg.NumAggregates)
	for _, a := range agg.Labels {
		if a >= 0 {
			s[a]++
		}
	}
	return s
}

// QualityStats summarizes an aggregation for quality comparison
// (the data behind Table V's iteration differences and the partitioning
// comparison of Gilbert et al.).
type QualityStats struct {
	// NumAggregates and MeanSize describe the coarsening rate.
	NumAggregates int
	MeanSize      float64
	// MinSize and MaxSize bound the size distribution; irregular sizes
	// (large max) correlate with slower multigrid convergence.
	MinSize, MaxSize int
	// BoundaryFraction is the fraction of edges crossing aggregates:
	// lower means better-localized aggregates.
	BoundaryFraction float64
}

// Quality computes QualityStats for an aggregation of g.
func Quality(g *graph.CSR, agg Aggregation) QualityStats {
	sizes := Sizes(agg)
	st := QualityStats{NumAggregates: agg.NumAggregates}
	if agg.NumAggregates == 0 {
		return st
	}
	st.MinSize, st.MaxSize = sizes[0], sizes[0]
	for _, s := range sizes {
		if s < st.MinSize {
			st.MinSize = s
		}
		if s > st.MaxSize {
			st.MaxSize = s
		}
	}
	st.MeanSize = float64(g.N) / float64(agg.NumAggregates)
	if g.NumEdges() > 0 {
		cross := 0
		for v := int32(0); int(v) < g.N; v++ {
			for _, w := range g.Neighbors(v) {
				if w > v && agg.Labels[v] != agg.Labels[w] {
					cross++
				}
			}
		}
		st.BoundaryFraction = float64(cross) / float64(g.NumEdges()/2)
	}
	return st
}

// CoarseGraph collapses g according to the aggregation: coarse vertices
// are aggregates; a coarse edge links aggregates joined by any fine edge.
// g must pass Validate (in particular, be symmetric). A label outside
// [0, NumAggregates) puts its vertex in no aggregate, and the vertex's
// edges are dropped. The result is a canonical graph (sorted,
// duplicate-free rows), identical for any worker count. It runs on
// par.Default().
func CoarseGraph(g *graph.CSR, agg Aggregation) *graph.CSR {
	return coarseGraph(par.Default(), g, agg)
}

// coarseGraph is CoarseGraph on rt. It lists each aggregate's members by
// counting sort, then graph.Collect walks each aggregate's members once,
// staging each block's rows in a buffer sized by the members' degree sum
// (a row lists at most one aggregate per member arc, so it never
// regrows). No edge list is built.
func coarseGraph(rt *par.Runtime, g *graph.CSR, agg Aggregation) *graph.CSR {
	na := agg.NumAggregates
	labels := agg.Labels[:g.N]
	ar := par.AcquireArena()
	defer par.ReleaseArena(ar)

	// Membership CSR: members[memPtr[a]:memPtr[a+1]] are the vertices of
	// aggregate a, ascending.
	memPtr := par.GetZeroed[int](ar, na+1)
	for _, a := range labels {
		if uint32(a) < uint32(na) {
			memPtr[a+1]++
		}
	}
	for a := 0; a < na; a++ {
		memPtr[a+1] += memPtr[a]
	}
	members := par.Get[int32](ar, memPtr[na])
	next := par.Get[int](ar, na)
	copy(next, memPtr[:na])
	for v, a := range labels {
		if uint32(a) < uint32(na) {
			members[next[a]] = int32(v)
			next[a]++
		}
	}
	par.Put(ar, next)

	cg := graph.Collect(rt, na, na,
		func(lo, hi int) int {
			bound := 0
			for _, v := range members[memPtr[lo]:memPtr[hi]] {
				bound += g.Degree(v)
			}
			return bound
		},
		func(a int, mark, buf []int32) []int32 {
			return adjacentAggregates(g, labels, members[memPtr[a]:memPtr[a+1]], int32(a), mark, buf)
		})
	par.Put(ar, memPtr)
	par.Put(ar, members)
	return cg
}

// adjacentAggregates appends to buf, in discovery order, the aggregates
// other than a that hold a neighbor of one of a's members, each once,
// skipping labels outside [0, len(stamp)). stamp[b] == a marks b as
// already appended.
func adjacentAggregates(g *graph.CSR, labels, members []int32, a int32, stamp, buf []int32) []int32 {
	na := uint32(len(stamp))
	stamp[a] = a
	for _, v := range members {
		for _, w := range g.Neighbors(v) {
			b := labels[w]
			if uint32(b) < na && stamp[b] != a {
				stamp[b] = a
				buf = append(buf, b)
			}
		}
	}
	return buf
}

// Prolongator builds the tentative prolongation matrix P0 for smoothed
// aggregation: column a has entries 1/sqrt(|a|) on the vertices of
// aggregate a (piecewise-constant near-nullspace, orthonormal columns).
func Prolongator(agg Aggregation) *sparse.Matrix {
	n := len(agg.Labels)
	sizes := Sizes(agg)
	inv := make([]float64, agg.NumAggregates)
	for a, s := range sizes {
		if s > 0 {
			inv[a] = 1 / math.Sqrt(float64(s))
		}
	}
	p := &sparse.Matrix{Rows: n, Cols: agg.NumAggregates}
	p.RowPtr = make([]int, n+1)
	p.Col = make([]int32, n)
	p.Val = make([]float64, n)
	for v := 0; v < n; v++ {
		p.RowPtr[v+1] = v + 1
		p.Col[v] = agg.Labels[v]
		p.Val[v] = inv[agg.Labels[v]]
	}
	return p
}
