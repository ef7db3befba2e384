package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/mis"
)

// coarsenAll is one mis2-coarsen op: Algorithm-3 aggregation and coarse
// graph construction, level by level, until a level has at most stop
// vertices or aggregation makes no progress. It returns every level's
// graph and aggregation.
func coarsenAll(tr *tracer, g *graph.CSR, stop, threads int) ([]*graph.CSR, []coarsen.Aggregation) {
	var graphs []*graph.CSR
	var aggs []coarsen.Aggregation
	for cur := g; cur.N > stop; {
		var agg coarsen.Aggregation
		tr.timed("coarsen.MIS2Aggregation", func() { agg = coarsen.MIS2Aggregation(cur, coarsen.Options{Threads: threads}) })
		graphs, aggs = append(graphs, cur), append(aggs, agg)
		if agg.NumAggregates >= cur.N {
			break
		}
		tr.timed("graph.CoarseGraph", func() { cur = coarsen.CoarseGraph(cur, agg) })
	}
	return graphs, aggs
}

// checkLevels verifies one coarsening level by level: sets[l] must be a
// distance-2 maximal independent set of graphs[l] and aggs[l] a valid
// aggregation of it.
func checkLevels(c *checker, graphs []*graph.CSR, aggs []coarsen.Aggregation, sets [][]int32) {
	for l, g := range graphs {
		c.checkErr(mis.CheckMIS2(g, sets[l]), fmt.Sprintf("level %d MIS-2", l))
		c.checkErr(coarsen.Check(g, aggs[l]), fmt.Sprintf("level %d aggregation", l))
	}
}

// runCoarsen is mis2-coarsen: every op is a multilevel Algorithm-3
// coarsening of a fixed Laplace3D graph, the paper's MIS-2 pipeline
// without any numerics.
func runCoarsen(ctx context.Context, rc *runConfig) (*report, error) {
	r := newReport()
	n, stop := rc.size.coarsenN, rc.size.coarsenStop
	var g *graph.CSR
	r.set("setup_s", setupSeconds(rc.size.setups, func() { g = gen.Laplace3D(n, n, n) }))
	r.note("graph: Laplace3D %d^3, %d vertices, %d arcs", n, g.N, g.NumEdges())

	var tr *tracer
	if rc.trace {
		tr = newTracer(time.Now())
	}
	var ref []int
	lat, elapsed := runOps(rc, tr, func(i int) float64 {
		var aggs []coarsen.Aggregation
		d := timeIt(func() { _, aggs = coarsenAll(tr, g, stop, 0) })
		counts := make([]int, len(aggs))
		for l, agg := range aggs {
			counts[l] = agg.NumAggregates
		}
		if ref == nil {
			ref = counts
		}
		r.checks.check(slices.Equal(counts, ref), "op %d: aggregates per level %v, first op had %v", i, counts, ref)
		return ms(d)
	})
	r.setOpStats(lat, elapsed)
	r.note("aggregates per level %v", ref)

	// One op checked level by level, and its labels bitwise equal at one
	// thread and at all cores.
	graphs, aggs := coarsenAll(nil, g, stop, 0)
	sets := make([][]int32, len(graphs))
	for l, gl := range graphs {
		sets[l] = mis.MIS2(gl, mis.Options{}).InSet
	}
	checkLevels(&r.checks, graphs, aggs, sets)
	_, aggs1 := coarsenAll(nil, g, stop, 1)
	same := len(aggs1) == len(aggs)
	for l := 0; same && l < len(aggs); l++ {
		same = slices.Equal(aggs[l].Labels, aggs1[l].Labels)
	}
	r.checks.check(same, "aggregation labels differ between 1 thread and all cores")

	if err := finish(r, rc, tr, lat, func() []system {
		return []system{{gen.Laplacian(g, 1e-4), randomVector(rc.rng(3), g.N)}}
	}); err != nil {
		return nil, err
	}
	return r, nil
}
