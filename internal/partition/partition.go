// Package partition implements multilevel graph bisection, the paper's
// stated future-work application (§VII): its conclusion proposes the
// MIS-2 aggregation of Algorithm 3 as the coarsening step of the
// multilevel partitioner of Gilbert et al. (IPDPS 2021), replacing the
// Bell-style coarsening and the more common heavy-edge matching (HEM).
//
// The package provides the full multilevel pipeline — weighted coarse
// graphs, a coarsening policy interface with MIS-2 aggregation and HEM
// policies, greedy growth bisection of the coarsest graph, and
// Fiduccia-Mattheyses-style boundary refinement during uncoarsening — so
// the coarsening schemes can be compared end to end on edge cut and
// balance, as Gilbert et al. do.
//
//amg:deterministic
package partition

import (
	"errors"
	"fmt"

	"mis2go/internal/coarsen"
	"mis2go/internal/graph"
	"mis2go/internal/hash"
	"mis2go/internal/par"
)

// WGraph is a vertex- and edge-weighted undirected graph in CSR form,
// produced by collapsing a finer graph. Weights count the fine vertices
// and fine edges each coarse entity represents.
type WGraph struct {
	N      int
	RowPtr []int
	Col    []int32
	EW     []int64 // edge weight per stored arc
	VW     []int64 // vertex weight
}

// FromCSR wraps an unweighted graph with unit weights.
func FromCSR(g *graph.CSR) *WGraph {
	ew := make([]int64, len(g.Col))
	for i := range ew {
		ew[i] = 1
	}
	vw := make([]int64, g.N)
	for i := range vw {
		vw[i] = 1
	}
	return &WGraph{N: g.N, RowPtr: g.RowPtr, Col: g.Col, EW: ew, VW: vw}
}

// Structure returns the unweighted adjacency structure (shared storage).
func (wg *WGraph) Structure() *graph.CSR {
	return &graph.CSR{N: wg.N, RowPtr: wg.RowPtr, Col: wg.Col}
}

// TotalVW returns the total vertex weight.
func (wg *WGraph) TotalVW() int64 {
	t := int64(0)
	for _, w := range wg.VW {
		t += w
	}
	return t
}

// Coarsen collapses the graph according to labels (one of numAgg
// aggregates per vertex), accumulating vertex and edge weights and
// dropping intra-aggregate edges.
func (wg *WGraph) Coarsen(labels []int32, numAgg int) *WGraph {
	type key struct{ a, b int32 }
	wsum := map[key]int64{}
	vw := make([]int64, numAgg)
	for v := 0; v < wg.N; v++ {
		vw[labels[v]] += wg.VW[v]
		for p := wg.RowPtr[v]; p < wg.RowPtr[v+1]; p++ {
			w := wg.Col[p]
			if int32(v) < w { // each undirected edge once
				a, b := labels[v], labels[w]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				wsum[key{a, b}] += wg.EW[p]
			}
		}
	}
	deg := make([]int, numAgg+1)
	//amg:order-ok degree counting is order-insensitive
	for k := range wsum {
		deg[k.a+1]++
		deg[k.b+1]++
	}
	rowPtr := make([]int, numAgg+1)
	for i := 0; i < numAgg; i++ {
		rowPtr[i+1] = rowPtr[i] + deg[i+1]
	}
	col := make([]int32, rowPtr[numAgg])
	ew := make([]int64, rowPtr[numAgg])
	fill := make([]int, numAgg)
	copy(fill, rowPtr[:numAgg])
	//amg:order-ok fill order is canonicalized by sortRows below
	for k, w := range wsum {
		col[fill[k.a]], ew[fill[k.a]] = k.b, w
		fill[k.a]++
		col[fill[k.b]], ew[fill[k.b]] = k.a, w
		fill[k.b]++
	}
	out := &WGraph{N: numAgg, RowPtr: rowPtr, Col: col, EW: ew, VW: vw}
	out.sortRows()
	return out
}

// sortRows orders each adjacency list ascending (insertion sort per row;
// rows are short), keeping EW aligned. Map iteration order above is
// nondeterministic, so this restores a canonical layout.
func (wg *WGraph) sortRows() {
	for v := 0; v < wg.N; v++ {
		lo, hi := wg.RowPtr[v], wg.RowPtr[v+1]
		for i := lo + 1; i < hi; i++ {
			c, e := wg.Col[i], wg.EW[i]
			j := i - 1
			for j >= lo && wg.Col[j] > c {
				wg.Col[j+1], wg.EW[j+1] = wg.Col[j], wg.EW[j]
				j--
			}
			wg.Col[j+1], wg.EW[j+1] = c, e
		}
	}
}

// Policy selects the coarsening scheme of the multilevel cycle.
type Policy int

const (
	// MIS2Policy coarsens with Algorithm 3 (the paper's proposal).
	MIS2Policy Policy = iota
	// HEMPolicy coarsens with greedy heavy-edge matching, the standard
	// multilevel-partitioning baseline.
	HEMPolicy
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case MIS2Policy:
		return "MIS-2"
	case HEMPolicy:
		return "HEM"
	}
	return "unknown"
}

// HEM computes a heavy-edge matching aggregation of wg: vertices are
// visited in a deterministic pseudo-random order; each unmatched vertex
// pairs with its heaviest-edge unmatched neighbor (ties to the smaller
// id). Unmatched leftovers become singletons.
func HEM(wg *WGraph) coarsen.Aggregation {
	n := wg.N
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Deterministic shuffle by hash priority (visiting order matters for
	// matching quality; random order avoids grid bias).
	prio := make([]uint64, n)
	for i := range prio {
		prio[i] = hash.Xorshift64Star(uint64(i) + 0x9E3779B97F4A7C15)
	}
	sortByPrio(order, prio)

	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		best := int32(-1)
		var bestW int64 = -1
		for p := wg.RowPtr[v]; p < wg.RowPtr[v+1]; p++ {
			w := wg.Col[p]
			if match[w] >= 0 {
				continue
			}
			if wg.EW[p] > bestW || (wg.EW[p] == bestW && (best == -1 || w < best)) {
				best, bestW = w, wg.EW[p]
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
		} else {
			match[v] = v // singleton
		}
	}
	labels := make([]int32, n)
	numAgg := 0
	for i := range labels {
		labels[i] = -1
	}
	for v := int32(0); int(v) < n; v++ {
		if labels[v] >= 0 {
			continue
		}
		id := int32(numAgg)
		numAgg++
		labels[v] = id
		if m := match[v]; m != v && labels[m] < 0 {
			labels[m] = id
		}
	}
	return coarsen.Aggregation{Labels: labels, NumAggregates: numAgg}
}

// sortByPrio sorts ids ascending by prio (simple deterministic heapsort
// to avoid pulling package sort's interface overhead into the hot path).
func sortByPrio(ids []int32, prio []uint64) {
	less := func(a, b int32) bool {
		if prio[a] != prio[b] {
			return prio[a] < prio[b]
		}
		return a < b
	}
	n := len(ids)
	var down func(i, n int)
	down = func(i, n int) {
		for {
			c := 2*i + 1
			if c >= n {
				return
			}
			if c+1 < n && less(ids[c], ids[c+1]) {
				c++
			}
			if !less(ids[i], ids[c]) {
				return
			}
			ids[i], ids[c] = ids[c], ids[i]
			i = c
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i, n)
	}
	for i := n - 1; i > 0; i-- {
		ids[0], ids[i] = ids[i], ids[0]
		down(0, i)
	}
}

// Options configures Partition.
type Options struct {
	// Policy selects the coarsening scheme (default MIS2Policy).
	Policy Policy
	// CoarsestSize stops coarsening below this many vertices
	// (default 64).
	CoarsestSize int
	// RefinePasses bounds the FM passes per level (default 8).
	RefinePasses int
	// Imbalance is the allowed part-weight imbalance fraction
	// (default 0.05: parts within 5% of perfect balance).
	Imbalance float64
	// Threads is the worker count for the MIS-2 coarsening.
	Threads int
}

func (o Options) withDefaults() Options {
	if o.CoarsestSize <= 0 {
		o.CoarsestSize = 64
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
	}
	return o
}

// Result reports a bisection.
type Result struct {
	// Part[v] in {0,1} is the side of vertex v. Labels are int32 — the
	// same width KWay uses — so bisection results compose with k-way
	// labelings, Check, EdgeCut, and Fingerprint without conversion.
	Part []int32
	// EdgeCut is the total weight of edges crossing the cut.
	EdgeCut int64
	// Balance is max(part weight) / (total/2); 1.0 is perfect.
	Balance float64
	// Levels is the multilevel hierarchy depth used.
	Levels int
}

// Partition bisects g with the multilevel scheme: coarsen with the
// selected policy until the graph is small, bisect the coarsest graph by
// greedy region growth, then uncoarsen with boundary FM refinement at
// each level. Deterministic.
func Partition(g *graph.CSR, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if g.N < 2 {
		return Result{}, errors.New("partition: graph too small to bisect")
	}
	// Build the multilevel hierarchy.
	type level struct {
		wg     *WGraph
		labels []int32 // fine vertex -> coarse vertex (nil on coarsest)
	}
	levels := []level{{wg: FromCSR(g)}}
	for levels[len(levels)-1].wg.N > opt.CoarsestSize {
		cur := levels[len(levels)-1].wg
		var agg coarsen.Aggregation
		switch opt.Policy {
		case HEMPolicy:
			agg = HEM(cur)
		default:
			agg = coarsen.MIS2Aggregation(cur.Structure(), coarsen.Options{Threads: opt.Threads})
		}
		if agg.NumAggregates >= cur.N {
			break // no progress
		}
		levels[len(levels)-1].labels = agg.Labels
		levels = append(levels, level{wg: cur.Coarsen(agg.Labels, agg.NumAggregates)})
	}

	// Bisect the coarsest level, then project and refine upward.
	coarsest := levels[len(levels)-1].wg
	part := growBisect(coarsest)
	refine(coarsest, part, opt)
	for l := len(levels) - 2; l >= 0; l-- {
		fine := levels[l].wg
		finePart := make([]int32, fine.N)
		for v := 0; v < fine.N; v++ {
			finePart[v] = part[levels[l].labels[v]]
		}
		part = finePart
		refine(fine, part, opt)
	}

	cut := EdgeCut(levels[0].wg, part)
	return Result{
		Part:    part,
		EdgeCut: cut,
		Balance: balance(levels[0].wg, part),
		Levels:  len(levels),
	}, nil
}

// growBisect grows part 0 by weighted BFS from a pseudo-peripheral
// vertex until it holds half the total weight.
func growBisect(wg *WGraph) []int32 {
	part := make([]int32, wg.N)
	for i := range part {
		part[i] = 1
	}
	if wg.N == 0 {
		return part
	}
	target := wg.TotalVW() / 2
	var grown int64
	visited := make([]bool, wg.N)
	queue := make([]int32, 0, wg.N)
	for s := 0; s < wg.N && grown < target; s++ {
		if visited[s] {
			continue
		}
		queue = append(queue[:0], int32(s))
		visited[s] = true
		for qi := 0; qi < len(queue) && grown < target; qi++ {
			v := queue[qi]
			part[v] = 0
			grown += wg.VW[v]
			for p := wg.RowPtr[v]; p < wg.RowPtr[v+1]; p++ {
				w := wg.Col[p]
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return part
}

// refine runs FM-style passes: repeatedly move the boundary vertex with
// the best gain that keeps balance, until a pass yields no improvement.
func refine(wg *WGraph, part []int32, opt Options) {
	total := wg.TotalVW()
	maxSide := int64(float64(total) * (0.5 + opt.Imbalance/2))
	var side [2]int64
	for v := 0; v < wg.N; v++ {
		side[part[v]] += wg.VW[v]
	}
	gain := func(v int32) int64 {
		var internal, external int64
		pv := part[v]
		for p := wg.RowPtr[v]; p < wg.RowPtr[v+1]; p++ {
			if part[wg.Col[p]] == pv {
				internal += wg.EW[p]
			} else {
				external += wg.EW[p]
			}
		}
		return external - internal
	}
	for pass := 0; pass < opt.RefinePasses; pass++ {
		improved := false
		for v := int32(0); int(v) < wg.N; v++ {
			g := gain(v)
			if g <= 0 {
				continue
			}
			from := part[v]
			to := 1 - from
			if side[to]+wg.VW[v] > maxSide {
				continue
			}
			part[v] = to
			side[from] -= wg.VW[v]
			side[to] += wg.VW[v]
			improved = true
		}
		if !improved {
			break
		}
	}
}

// EdgeCut returns the total weight of edges crossing parts. It accepts
// any labeling — a bisection or a k-way partition.
func EdgeCut(wg *WGraph, part []int32) int64 {
	var cut int64
	for v := 0; v < wg.N; v++ {
		for p := wg.RowPtr[v]; p < wg.RowPtr[v+1]; p++ {
			w := wg.Col[p]
			if int32(v) < w && part[v] != part[w] {
				cut += wg.EW[p]
			}
		}
	}
	return cut
}

// balance returns max part weight over the perfect half.
func balance(wg *WGraph, part []int32) float64 {
	var side [2]int64
	for v := 0; v < wg.N; v++ {
		side[part[v]] += wg.VW[v]
	}
	m := side[0]
	if side[1] > m {
		m = side[1]
	}
	half := float64(wg.TotalVW()) / 2
	if half == 0 {
		return 1
	}
	return float64(m) / half
}

// KWayResult reports a k-way partition.
type KWayResult struct {
	// Part[v] in [0, K) is the part of vertex v.
	Part []int32
	// K is the number of parts.
	K int
	// EdgeCut is the total weight of edges crossing parts.
	EdgeCut int64
	// Balance is max part weight over the perfect share.
	Balance float64
}

// KWay partitions g into k parts (k a power of two) by recursive
// bisection, the standard multilevel approach. Deterministic.
func KWay(g *graph.CSR, k int, opt Options) (KWayResult, error) {
	if k < 2 || k&(k-1) != 0 {
		return KWayResult{}, fmt.Errorf("partition: k must be a power of two >= 2, got %d", k)
	}
	part := make([]int32, g.N)
	if err := kwayRecurse(g, part, 0, k, opt); err != nil {
		return KWayResult{}, err
	}
	wg := FromCSR(g)
	var cut int64
	for v := 0; v < wg.N; v++ {
		for p := wg.RowPtr[v]; p < wg.RowPtr[v+1]; p++ {
			w := wg.Col[p]
			if int32(v) < w && part[v] != part[w] {
				cut += wg.EW[p]
			}
		}
	}
	counts := make([]int64, k)
	for _, p := range part {
		counts[p]++
	}
	maxW := counts[0]
	for _, c := range counts[1:] {
		if c > maxW {
			maxW = c
		}
	}
	share := float64(g.N) / float64(k)
	bal := 1.0
	if share > 0 {
		bal = float64(maxW) / share
	}
	return KWayResult{Part: part, K: k, EdgeCut: cut, Balance: bal}, nil
}

// kwayRecurse bisects the subgraph currently labeled base and assigns
// halves to [base, base+k/2) and [base+k/2, base+k).
func kwayRecurse(g *graph.CSR, part []int32, base int32, k int, opt Options) error {
	if k == 1 {
		return nil
	}
	keep := make([]bool, g.N)
	any := false
	for v := 0; v < g.N; v++ {
		if part[v] == base {
			keep[v] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	sub, _, toOrig := g.InducedSubgraph(par.New(opt.Threads), keep)
	if sub.N < 2 {
		return nil // too small to split further; leave in the low half
	}
	res, err := Partition(sub, opt)
	if err != nil {
		return err
	}
	half := int32(k / 2)
	for s, p := range res.Part {
		if p == 1 {
			part[toOrig[s]] = base + half
		}
	}
	if err := kwayRecurse(g, part, base, k/2, opt); err != nil {
		return err
	}
	return kwayRecurse(g, part, base+half, k/2, opt)
}

// Check validates a k-way labeling: one label per vertex, every label
// in [0, k), and — when the graph has at least k vertices — no empty
// part. A bisection is the k = 2 case. Errors are descriptive (which
// vertex, which label) in the style of the order package's permutation
// checks, so a bad labeling fails loudly at the boundary instead of
// corrupting whatever consumes it.
func Check(wg *WGraph, part []int32, k int) error {
	if k < 1 {
		return fmt.Errorf("partition: part count %d, want at least 1", k)
	}
	if len(part) != wg.N {
		return fmt.Errorf("partition: %d labels for %d vertices", len(part), wg.N)
	}
	count := make([]int64, k)
	for v, p := range part {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("partition: label part[%d] = %d out of range [0, %d)", v, p, k)
		}
		count[p]++
	}
	if wg.N >= k {
		for p, c := range count {
			if c == 0 {
				return fmt.Errorf("partition: part %d of %d is empty", p, k)
			}
		}
	}
	return nil
}

// Fingerprint computes a deterministic 64-bit fingerprint of a k-way
// partition: the part count, the vertex count, and every label in
// vertex order, chained through the same mixing steps as
// hash.PatternFingerprint, so two partitions compare by one number
// without serializing the labels. Allocation-free and O(vertices).
func Fingerprint(k int, part []int32) uint64 {
	h := hash.Combine(hash.FingerprintSeed, uint64(k))
	h = hash.Combine(h, uint64(len(part)))
	for _, p := range part {
		h = hash.Combine(h, uint64(uint32(p)))
	}
	return hash.Finalize(h)
}

// Fingerprint returns the deterministic fingerprint of the k-way result
// (see the package-level Fingerprint).
func (r KWayResult) Fingerprint() uint64 { return Fingerprint(r.K, r.Part) }
