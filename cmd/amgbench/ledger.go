package main

import (
	"context"
	"fmt"
	"runtime"

	"mis2go/internal/amg"
	"mis2go/internal/coarsen"
	"mis2go/internal/graph"
	"mis2go/internal/krylov"
	"mis2go/internal/mis"
	"mis2go/internal/par"
	"mis2go/internal/serve"
	"mis2go/internal/sparse"
)

// system is one linear system a workload works on.
type system struct {
	a *sparse.Matrix
	b []float64
}

// finish completes a sequential workload's report: peak memory for an
// untraced run; for a traced run the op decomposition, the ledger pass
// over the workload's systems (built only when traced), and the spans.
func finish(r *report, rc *runConfig, tr *tracer, lat []float64, systems func() []system) error {
	if !rc.trace {
		rss, err := selfPeakRSSMB()
		if err != nil {
			return err
		}
		r.set("peak_rss_mb", rss)
		return nil
	}
	traceOps(r, lat, tr)
	l := &ledger{tr: tr}
	if err := l.run(systems(), true); err != nil {
		return err
	}
	l.report(r)
	return writeSpans(rc.spans, tr)
}

// ledger times each layer's public entry points on a set of systems:
// the graph, MIS-2 and aggregation of level 0, a traced build whose
// aggregation calls and per-level sparse set-up are timed separately,
// a refresh, one traced solve, and — unless the workload measures the
// service itself — one build, reuse and refresh request through an
// in-process serve.Service. Times are summed over the systems.
type ledger struct {
	tr *tracer

	extract, misN, mis1, bell, aggSelf, coarseGraph float64
	edges, rounds, visits                           int
	parts                                           setupParts
	dense, symbolic, numeric, refresh               float64
	buildN, build1                                  float64
	levels, levelNNZ, fineNNZ                       int
	vcycle, spmv, cgSelf                            float64
	vcycleCalls, spmvCalls, iters                   int
	spmvBytes                                       float64
	serveMs                                         map[string][]float64
	useful, requests                                int64
}

// setupParts are the pieces of the symbolic set-up phase the ledger can
// time from outside: the aggregation calls inside a real build and, per
// level, graph extraction, operator conversion, the tentative
// prolongator, the three SpGEMM plans, and the dense coarse allocation.
// What they leave of the symbolic time is validation and bookkeeping.
type setupParts struct {
	aggregate, extract, operator, prolong, smooth, transpose, rap, alloc float64
}

func (p setupParts) sum() float64 {
	return p.aggregate + p.extract + p.operator + p.prolong + p.smooth + p.transpose + p.rap + p.alloc
}

// reps is how often the ledger repeats a short call before taking the
// median.
const reps = 3

func (l *ledger) median(name string, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		ts[i] = l.tr.timed(name, f)
	}
	return median(ts)
}

func (l *ledger) run(systems []system, withServe bool) error {
	l.tr.setTrace("ledger")
	l.serveMs = map[string][]float64{}
	for i, s := range systems {
		if err := l.system(s, withServe); err != nil {
			return fmt.Errorf("ledger system %d: %w", i, err)
		}
	}
	return nil
}

func (l *ledger) system(s system, withServe bool) error {
	rt := par.New(0)
	a, b := s.a, s.b

	var g *graph.CSR
	l.extract += l.median("sparse.GraphWith", func() { g = a.GraphWith(rt) })
	misN := l.median("mis.MIS2", func() { mis.MIS2(g, mis.Options{}) })
	l.misN += misN
	l.mis1 += l.median("mis.MIS2/threads=1", func() { mis.MIS2(g, mis.Options{Threads: 1}) })
	st := mis.MIS2(g, mis.Options{CollectStats: true})
	l.rounds += st.Iterations
	for i := range st.Worklist1 {
		l.visits += st.Worklist1[i] + st.Worklist2[i]
	}
	l.edges += g.NumEdges()
	l.bell += l.tr.timed("mis.BellMISK", func() { mis.BellMISK(g, mis.BellOptions{}) })
	var agg coarsen.Aggregation
	l.aggSelf += l.median("coarsen.MIS2Aggregation", func() { agg = coarsen.MIS2Aggregation(g, coarsen.Options{}) }) - misN
	l.coarseGraph += l.median("graph.CoarseGraph", func() { coarsen.CoarseGraph(g, agg) })

	// A real build with its aggregation calls timed, then each level's
	// sparse set-up re-timed on the hierarchy's exported operators.
	var aggMs []float64
	var h *amg.Hierarchy
	var err error
	sym := l.median("amg.BuildSymbolic", func() {
		var t float64
		h, err = amg.BuildSymbolic(a, amg.Options{Aggregate: aggregateTimer(l.tr, &t)})
		aggMs = append(aggMs, t)
	})
	if err != nil {
		return err
	}
	num := l.tr.timed("amg.BuildNumeric", func() { err = h.BuildNumeric(a) })
	if err != nil {
		return err
	}
	l.symbolic += sym
	l.numeric += num
	parts := &l.parts
	parts.aggregate += median(aggMs)
	for _, lv := range h.Levels[:len(h.Levels)-1] {
		parts.extract += l.median("sparse.GraphWith", func() { lv.A.GraphWith(rt) })
		parts.operator += l.median("sparse.NewOperatorPrec", func() {
			_, err = sparse.NewOperatorPrec(lv.A, sparse.FormatAuto, 0, sparse.PrecisionF64)
		})
		var p0 *sparse.Matrix
		parts.prolong += l.median("coarsen.Prolongator", func() { p0 = coarsen.Prolongator(lv.Agg) })
		parts.smooth += l.median("sparse.PlanSmoothProlongator", func() {
			var pl *sparse.SmoothPlan
			if pl, err = sparse.PlanSmoothProlongator(rt, lv.A, p0); err == nil {
				pl.NewMatrix()
			}
		})
		parts.transpose += l.median("sparse.PlanTranspose", func() { sparse.PlanTranspose(rt, lv.P).NewMatrix() })
		parts.rap += l.median("sparse.PlanRAP", func() {
			var pl *sparse.RAPPlan
			if pl, err = sparse.PlanRAP(rt, lv.R, lv.A, lv.P); err == nil {
				pl.NewMatrix()
			}
		})
		if err != nil {
			return err
		}
	}
	coarse := h.Levels[len(h.Levels)-1].A
	var d *sparse.Dense
	alloc := l.median("sparse.NewDense", func() { d, err = sparse.NewDense(coarse.Rows) })
	if err != nil {
		return err
	}
	factor := l.median("sparse.Dense.Factorize", func() {
		if err = d.FillFrom(coarse); err == nil {
			err = d.Factorize()
		}
	})
	if err != nil {
		return err
	}
	parts.alloc += alloc
	l.dense += alloc + factor

	l.buildN += l.tr.timed("amg.Build", func() { _, err = amg.Build(a, amg.Options{}) })
	l.build1 += l.tr.timed("amg.Build/threads=1", func() { _, err = amg.Build(a, amg.Options{Threads: 1}) })
	if err != nil {
		return err
	}
	l.levels += h.NumLevels()
	for _, lv := range h.Levels {
		l.levelNNZ += lv.A.NNZ()
	}
	l.fineNNZ += a.NNZ()
	l.refresh += l.median("amg.Refresh", func() { err = h.Refresh(a) })
	if err != nil {
		return err
	}

	// One traced solve; its V-cycle and SpMV spans split the CG time.
	x := make([]float64, a.Rows)
	mark := len(l.tr.spans)
	var cgSt krylov.Stats
	cg := ms(timeIt(func() { cgSt, err = solve(l.tr, rt, a, h, b, x, nil) }))
	if err != nil {
		return err
	}
	var vc, mv float64
	for _, sp := range l.tr.spans[mark:] {
		switch sp.Name {
		case "amg.Precondition":
			vc += float64(sp.End-sp.Start) / 1e6
			l.vcycleCalls++
		case "sparse.SpMV":
			mv += float64(sp.End-sp.Start) / 1e6
			l.spmvCalls++
			l.spmvBytes += float64(12*a.NNZ() + 16*a.Rows)
		}
	}
	l.vcycle += vc
	l.spmv += mv
	l.cgSelf += cg - vc - mv
	l.iters += cgSt.Iterations

	if withServe {
		return l.serve(a, b)
	}
	return nil
}

// serve sends a build, a reuse and a refresh request for one system to
// an in-process service configured like amgserve's defaults.
func (l *ledger) serve(a *sparse.Matrix, b []float64) error {
	svc := serve.New(serve.Config{})
	scaled := a.Clone()
	scaled.Scale(2)
	for _, want := range []struct {
		a       *sparse.Matrix
		outcome string
	}{{a, "build"}, {a, "reuse"}, {scaled, "refresh"}} {
		var st serve.RequestStats
		var err error
		t := l.tr.timed("serve.SolveBatch", func() {
			_, st, err = svc.SolveBatch(context.Background(), want.a, [][]float64{b})
		})
		if err != nil {
			return err
		}
		if got := st.Outcome.String(); got != want.outcome || !st.Converged {
			return fmt.Errorf("in-process %s request: outcome %s, converged %v", want.outcome, got, st.Converged)
		}
		l.serveMs[want.outcome] = append(l.serveMs[want.outcome], t)
	}
	m := svc.Metrics()
	l.useful += m.Refreshes + m.ValueHits
	l.requests += m.Requests
	return nil
}

// report sets the per-layer metrics from the ledger's sums.
func (l *ledger) report(r *report) {
	r.set("graph.extract_ms", l.extract)
	r.set("mis.time_ms", l.misN)
	r.set("mis.ns_per_edge", l.misN*1e6/float64(l.edges))
	r.set("mis.rounds", float64(l.rounds))
	r.set("mis.worklist_visits", float64(l.visits))
	r.set("mis.bell_ratio", l.bell/l.misN)
	r.set("mis.speedup_1_to_N", l.mis1/l.misN)
	r.set("coarsen.agg_self_ms", l.aggSelf)
	r.set("graph.coarse_graph_ms", l.coarseGraph)
	r.set("sparse.plan_smooth_ms", l.parts.smooth)
	r.set("sparse.plan_transpose_ms", l.parts.transpose)
	r.set("sparse.plan_rap_ms", l.parts.rap)
	r.set("sparse.operator_ms", l.parts.operator)
	r.set("sparse.dense_factor_ms", l.dense)
	r.set("amg.symbolic_ms", l.symbolic)
	r.set("amg.numeric_ms", l.numeric)
	r.set("amg.refresh_ms", l.refresh)
	r.set("amg.setup_unattributed_frac", 1-l.parts.sum()/l.symbolic)
	r.set("amg.setup_speedup_1_to_N", l.build1/l.buildN)
	r.set("amg.levels", float64(l.levels))
	r.set("amg.op_complexity", float64(l.levelNNZ)/float64(l.fineNNZ))
	r.set("amg.vcycle_ms", l.vcycle/float64(l.vcycleCalls))
	r.set("sparse.spmv_ms", l.spmv/float64(l.spmvCalls))
	r.set("sparse.spmv_gbps_computed", l.spmvBytes/(l.spmv*1e6))
	r.set("krylov.cg_self_ms", l.cgSelf)
	r.set("krylov.cg_iters", float64(l.iters))
	if l.requests > 0 {
		r.set("serve.build_ms", median(l.serveMs["build"]))
		r.set("serve.refresh_ms", median(l.serveMs["refresh"]))
		r.set("serve.reuse_ms", median(l.serveMs["reuse"]))
		r.set("serve.cache_useful_ratio", float64(l.useful)/float64(l.requests))
	}
	p := l.parts
	r.note("ledger at GOMAXPROCS=%d: MIS-2 %.3fms (Bell %.2fx its time, %d rounds), build %.3fms (1 thread %.3fms)",
		runtime.GOMAXPROCS(0), l.misN, l.bell/l.misN, l.rounds, l.buildN, l.build1)
	r.note("symbolic %.3fms = aggregate %.3f + graphs %.3f + operators %.3f + P0 %.3f + smooth plan %.3f + transpose plan %.3f + RAP plan %.3f + dense %.3f + unattributed %.3f",
		l.symbolic, p.aggregate, p.extract, p.operator, p.prolong, p.smooth, p.transpose, p.rap, p.alloc, l.symbolic-p.sum())
}
