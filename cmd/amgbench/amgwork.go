package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// tol is the relative residual every solve in the benchmark reaches; it
// is also amgserve's default.
const (
	tol     = 1e-8
	maxIter = 500
)

// aggregateTimer is the default aggregation (Algorithm 3) wrapped in a
// span; it adds each call's duration to *total.
func aggregateTimer(tr *tracer, total *float64) amg.AggregateFunc {
	return func(g *graph.CSR) coarsen.Aggregation {
		var agg coarsen.Aggregation
		*total += tr.timed("coarsen.MIS2Aggregation", func() {
			agg = coarsen.MIS2Aggregation(g, coarsen.Options{})
		})
		return agg
	}
}

// build constructs the hierarchy of a with default options. A traced
// build runs the symbolic and numeric halves (what amg.Build composes)
// under separate spans, with the aggregation wrapped in its own.
func build(tr *tracer, a *sparse.Matrix) (*amg.Hierarchy, error) {
	if tr == nil {
		return amg.Build(a, amg.Options{})
	}
	opt := amg.Options{Aggregate: aggregateTimer(tr, new(float64))}
	var h *amg.Hierarchy
	var err error
	tr.timed("amg.BuildSymbolic", func() { h, err = amg.BuildSymbolic(a, opt) })
	if err != nil {
		return nil, err
	}
	tr.timed("amg.BuildNumeric", func() { err = h.BuildNumeric(a) })
	return h, err
}

// solve runs AMG-preconditioned CG from x = 0 to tol. A traced solve
// wraps the operator and the preconditioner so every SpMV and V-cycle
// gets a span.
func solve(tr *tracer, rt *par.Runtime, a *sparse.Matrix, h *amg.Hierarchy, b, x []float64, ws *krylov.Workspace) (krylov.Stats, error) {
	clear(x)
	var op sparse.Operator = a
	var m krylov.Preconditioner = h
	if tr != nil {
		op, m = tracedOp{a, tr}, tracedPrec{h, tr}
	}
	tr.begin("krylov.CG")
	defer tr.end()
	return krylov.CGWith(rt, op, b, x, tol, maxIter, m, ws)
}

// relResidual recomputes ||b - Ax|| / ||b||.
func relResidual(a *sparse.Matrix, b, x []float64) float64 {
	r := make([]float64, len(b))
	a.SpMVResidual(par.New(0), b, x, r)
	return norm(r) / norm(b)
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// checkSolve records whether a solve converged and its recomputed true
// residual meets tol.
func checkSolve(c *checker, what string, a *sparse.Matrix, b, x []float64, st krylov.Stats, err error) {
	if err != nil {
		c.check(false, "%s: %v", what, err)
		return
	}
	rr := relResidual(a, b, x)
	c.check(st.Converged && rr <= tol, "%s: converged=%v true relres %.3e (tol %g)", what, st.Converged, rr, tol)
}

func bitwiseEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// randomVector returns n values uniform in [-1, 1).
func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// runCold is amg-cold: every op is a cold amg.Build of a fixed
// elasticity-like matrix plus one AMG-CG solve — the paper's Table V
// pipeline, time to a solution of stated accuracy.
func runCold(ctx context.Context, rc *runConfig) (*report, error) {
	r := newReport()
	n := rc.size.elasticN
	var a *sparse.Matrix
	var b []float64
	r.set("setup_s", setupSeconds(rc.size.setups, func() {
		a = gen.Laplacian(gen.Elasticity3D(n, n, n, 3), 1e-4)
		b = randomVector(rc.rng(1), a.Rows)
	}))
	r.note("system: Elasticity3D %d^3 x 3 dofs, %d rows, %d nnz", n, a.Rows, a.NNZ())

	var tr *tracer
	if rc.trace {
		tr = newTracer(time.Now())
	}
	rt := par.New(0)
	ws := krylov.NewWorkspace(a.Rows)
	x := make([]float64, a.Rows)
	var first []float64
	var iters []float64
	var buildMs []float64
	lat, elapsed := runOps(rc, tr, func(i int) float64 {
		var h *amg.Hierarchy
		var st krylov.Stats
		var err error
		var bt float64
		d := timeIt(func() {
			bt = ms(timeIt(func() { h, err = build(tr, a) }))
			if err == nil {
				st, err = solve(tr, rt, a, h, b, x, ws)
			}
		})
		checkSolve(&r.checks, fmt.Sprintf("op %d", i), a, b, x, st, err)
		if first == nil {
			first = append([]float64(nil), x...)
		} else if !bitwiseEqual(first, x) {
			r.checks.check(false, "op %d: solution differs bitwise from the first op's", i)
		}
		if i >= 0 {
			iters = append(iters, float64(st.Iterations))
			buildMs = append(buildMs, bt)
		}
		return ms(d)
	})
	r.setOpStats(lat, elapsed)
	r.note("build p50 %.3fms, solve share %.1f%%, cg iterations p50 %.0f", median(buildMs), 100*(1-median(buildMs)/median(lat)), median(iters))
	if err := finish(r, rc, tr, lat, func() []system { return []system{{a, b}} }); err != nil {
		return nil, err
	}
	return r, nil
}

// runTimestep is amg-timestep: one cold build in set-up, then every op
// applies a new SPD-preserving value set (a scaled Laplacian plus a
// random positive diagonal, as a time step with a changing mass term
// would), refreshes the hierarchy, and solves a new right-hand side.
func runTimestep(ctx context.Context, rc *runConfig) (*report, error) {
	r := newReport()
	n := rc.size.stepN
	var a0 *sparse.Matrix
	var h *amg.Hierarchy
	var err error
	r.set("setup_s", setupSeconds(rc.size.setups, func() {
		a0 = gen.Laplacian(gen.Laplace3D(n, n, n), 1e-4)
		h, err = amg.Build(a0, amg.Options{})
	}))
	if err != nil {
		return nil, fmt.Errorf("cold build: %w", err)
	}
	r.note("system: Laplace3D %d^3, %d rows, %d nnz, %d levels", n, a0.Rows, a0.NNZ(), h.NumLevels())

	var tr *tracer
	if rc.trace {
		tr = newTracer(time.Now())
	}
	rng := rc.rng(2)
	rt := par.New(0)
	ws := krylov.NewWorkspace(a0.Rows)
	x := make([]float64, a0.Rows)
	// Two value buffers alternate: the hierarchy keeps a reference to the
	// matrix it was last refreshed with, so the next step's values are
	// written into the other one.
	mats := [2]*sparse.Matrix{a0.Clone(), a0.Clone()}
	var b []float64
	var cur *sparse.Matrix
	step := 0
	var iters []float64
	var refreshMs []float64
	lat, elapsed := runOps(rc, tr, func(i int) float64 {
		step++
		cur = mats[step%2]
		stepValues(rng, a0, cur)
		b = randomVector(rng, a0.Rows)
		var st krylov.Stats
		var err error
		var rt0 float64
		d := timeIt(func() {
			rt0 = tr.timed("amg.Refresh", func() { err = h.Refresh(cur) })
			if err == nil {
				st, err = solve(tr, rt, cur, h, b, x, ws)
			}
		})
		checkSolve(&r.checks, fmt.Sprintf("step %d", i), cur, b, x, st, err)
		if i >= 0 {
			iters = append(iters, float64(st.Iterations))
			refreshMs = append(refreshMs, rt0)
		}
		return ms(d)
	})
	r.setOpStats(lat, elapsed)
	r.note("refresh p50 %.3fms, cg iterations p50 %.0f", median(refreshMs), median(iters))

	// The last refreshed hierarchy must solve bitwise like a fresh build,
	// and a fresh build at one thread like one at all cores.
	last := append([]float64(nil), x...)
	for _, threads := range []int{0, 1} {
		hf, err := amg.Build(cur, amg.Options{Threads: threads})
		if !r.checks.checkErr(err, fmt.Sprintf("fresh build at %d threads", threads)) {
			continue
		}
		st, err := solve(nil, par.New(threads), cur, hf, b, x, krylov.NewWorkspace(len(b)))
		checkSolve(&r.checks, fmt.Sprintf("fresh-build solve at %d threads", threads), cur, b, x, st, err)
		r.checks.check(bitwiseEqual(last, x), "fresh build at %d threads: solution differs bitwise from the refreshed hierarchy's", threads)
	}
	if err := finish(r, rc, tr, lat, func() []system { return []system{{cur, b}} }); err != nil {
		return nil, err
	}
	return r, nil
}

// stepValues writes into dst (same pattern as base, a Laplacian) the
// values alpha*L + diag(sigma*(1+u_i)) with alpha in [0.5, 1.5), sigma in
// [1e-3, 1e-1) and u_i uniform in [0, 1): symmetric, diagonally dominant
// with a positive diagonal, so SPD.
func stepValues(rng *rand.Rand, base, dst *sparse.Matrix) {
	alpha := 0.5 + rng.Float64()
	sigma := 1e-3 + 0.099*rng.Float64()
	for i := 0; i < base.Rows; i++ {
		for p := base.RowPtr[i]; p < base.RowPtr[i+1]; p++ {
			if int(base.Col[p]) == i {
				deg := float64(base.RowPtr[i+1] - base.RowPtr[i] - 1)
				dst.Val[p] = alpha*deg + sigma*(1+rng.Float64())
			} else {
				dst.Val[p] = alpha * base.Val[p]
			}
		}
	}
}
