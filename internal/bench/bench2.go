// Runners for the comparison and solver experiments: Figures 6/7 and
// Tables IV, V, VI.
package bench

import (
	"fmt"
	"math"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/gs"
	"mis2go/internal/hash"
	"mis2go/internal/krylov"
	"mis2go/internal/matrices"
	"mis2go/internal/mis"
	"mis2go/internal/par"
)

func genLaplace(x, y, z int) *graph.CSR    { return gen.Laplace3D(x, y, z) }
func genElasticity(x, y, z int) *graph.CSR { return gen.Elasticity3D(x, y, z, 3) }

// cuspMIS2 runs the comparator standing in for the CUSP library: Bell's
// algorithm with fixed priorities, exactly as published.
func cuspMIS2(g *graph.CSR, threads int) mis.Result {
	return mis.BellMISK(g, mis.BellOptions{K: 2, Hash: hash.Fixed, Threads: threads})
}

// viennaMIS2 is the ViennaCL comparator: the same Bell algorithm with an
// independent random stream (different library, different RNG).
func viennaMIS2(g *graph.CSR, threads int) mis.Result {
	return mis.BellMISK(g, mis.BellOptions{K: 2, Hash: hash.Fixed, Salt: 0x51EC7A11, Threads: threads})
}

// Fig6 reproduces Figure 6: Kokkos-Kernels-style MIS-2 (Algorithm 1)
// vs. the CUSP implementation of Bell's algorithm.
func Fig6(cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(cfg.Out, "Figure 6: MIS-2 speedup vs CUSP (Bell, fixed priorities) (scale=%.3g)\n", cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-18s %10s %10s %9s\n", "matrix", "CUSP ms", "KK ms", "speedup")
	var sp []float64
	for _, m := range suiteGraphs(cfg.Scale) {
		dC := timeMean(cfg.Trials, func() { cuspMIS2(m.G, cfg.Threads) })
		dK := timeMean(cfg.Trials, func() { mis.MIS2(m.G, mis.Options{Threads: cfg.Threads}) })
		s := float64(dC) / float64(dK)
		sp = append(sp, s)
		fmt.Fprintf(cfg.Out, "%-18s %10.3f %10.3f %8.2fx\n", m.Spec.Name, ms(dC), ms(dK), s)
	}
	fmt.Fprintf(cfg.Out, "%-18s %10s %10s %8.2fx\n", "geomean", "", "", geomean(sp))
}

// Fig7 reproduces Figure 7: MIS-2 + basic coarsening (Algorithm 2)
// vs. the ViennaCL pipeline (Bell MIS-2 + the same coarsening).
func Fig7(cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(cfg.Out, "Figure 7: MIS-2 coarsening speedup vs ViennaCL pipeline (scale=%.3g)\n", cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-18s %10s %10s %9s\n", "matrix", "VCL ms", "KK ms", "speedup")
	var sp []float64
	for _, m := range suiteGraphs(cfg.Scale) {
		dV := timeMean(cfg.Trials, func() {
			roots := viennaMIS2(m.G, cfg.Threads).InSet
			coarsen.BasicFromRoots(m.G, roots, cfg.Threads)
		})
		dK := timeMean(cfg.Trials, func() {
			coarsen.Basic(m.G, coarsen.Options{Threads: cfg.Threads})
		})
		s := float64(dV) / float64(dK)
		sp = append(sp, s)
		fmt.Fprintf(cfg.Out, "%-18s %10.3f %10.3f %8.2fx\n", m.Spec.Name, ms(dV), ms(dK), s)
	}
	fmt.Fprintf(cfg.Out, "%-18s %10s %10s %8.2fx\n", "geomean", "", "", geomean(sp))
}

// Table4 reproduces Table IV: MIS-2 sizes from the three implementations
// (higher is better, all should be close).
func Table4(cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(cfg.Out, "Table IV: MIS-2 sizes, KK vs CUSP vs ViennaCL (scale=%.3g)\n", cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-18s %10s %10s %10s\n", "matrix", "KK", "CUSP", "ViennaCL")
	for _, m := range suiteGraphs(cfg.Scale) {
		kk := len(mis.MIS2(m.G, mis.Options{Threads: cfg.Threads}).InSet)
		cu := len(cuspMIS2(m.G, cfg.Threads).InSet)
		vi := len(viennaMIS2(m.G, cfg.Threads).InSet)
		fmt.Fprintf(cfg.Out, "%-18s %10d %10d %10d\n", m.Spec.Name, kk, cu, vi)
	}
}

// aggScheme is one Table V row.
type aggScheme struct {
	Name string
	// Deterministic reports the determinism of the original MueLu/ML
	// implementation the row models (the paper's "Det." column). All
	// reimplementations in this repository are deterministic by
	// construction; see DESIGN.md, "Determinism contract".
	Deterministic bool
	Run           func(g *graph.CSR, threads int) coarsen.Aggregation
}

func aggSchemes() []aggScheme {
	return []aggScheme{
		{Name: "Serial Agg", Deterministic: true,
			Run: func(g *graph.CSR, _ int) coarsen.Aggregation { return coarsen.SerialGreedy(g) }},
		{Name: "Serial D2C", Deterministic: false,
			Run: func(g *graph.CSR, th int) coarsen.Aggregation { return coarsen.D2C(g, th, false) }},
		{Name: "NB D2C", Deterministic: false,
			Run: func(g *graph.CSR, th int) coarsen.Aggregation { return coarsen.D2C(g, th, true) }},
		{Name: "MIS2 Basic", Deterministic: true,
			Run: func(g *graph.CSR, th int) coarsen.Aggregation {
				return coarsen.Basic(g, coarsen.Options{Threads: th})
			}},
		{Name: "MIS2 Agg", Deterministic: true,
			Run: func(g *graph.CSR, th int) coarsen.Aggregation {
				return coarsen.MIS2Aggregation(g, coarsen.Options{Threads: th})
			}},
	}
}

// Table5 reproduces Table V: SA-AMG preconditioned CG on a Laplace3D
// problem, one row per aggregation scheme: CG iterations, aggregation
// time, total setup time, solve time, determinism.
//
// The paper uses a 100^3 grid and tolerance 1e-12; the grid side here is
// 100 * cbrt(scale), so Scale=1 reproduces the paper's problem.
func Table5(cfg Config) {
	cfg = cfg.withDefaults()
	side := int(100 * math.Cbrt(cfg.Scale))
	if side < 8 {
		side = 8
	}
	g := gen.Laplace3D(side, side, side)
	a := gen.DirichletLaplacian(g, 6)
	rt := par.New(cfg.Threads)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.001*float64(i)) + 1
	}
	const tol = 1e-12
	fmt.Fprintf(cfg.Out, "Table V: SA-AMG+CG on Laplace3D %d^3, tol %.0e (scale=%.3g)\n", side, tol, cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-12s %7s %10s %10s %10s %6s\n", "scheme", "iters", "agg s", "setup s", "solve s", "det.")
	for _, s := range aggSchemes() {
		s := s
		gTop := a.Graph()
		dAgg := timeMean(cfg.Trials, func() { s.Run(gTop, cfg.Threads) })
		var h *amg.Hierarchy
		dSetup := timeMean(cfg.Trials, func() {
			var err error
			h, err = amg.Build(a, amg.Options{
				Threads: cfg.Threads,
				Aggregate: func(g *graph.CSR) coarsen.Aggregation {
					return s.Run(g, cfg.Threads)
				},
			})
			if err != nil {
				panic(err)
			}
		})
		x := make([]float64, n)
		var st krylov.Stats
		dSolve := timeMean(1, func() {
			for i := range x {
				x[i] = 0
			}
			var err error
			st, err = krylov.CGCtx(nil, rt, a, b, x, krylov.Options{Tol: tol, MaxIter: 1000, M: h})
			if err != nil {
				fmt.Fprintf(cfg.Out, "  (%s: %v)\n", s.Name, err)
			}
		})
		det := " "
		if s.Deterministic {
			det = "Y"
		}
		fmt.Fprintf(cfg.Out, "%-12s %7d %10.4f %10.4f %10.4f %6s\n",
			s.Name, st.Iterations, dAgg.Seconds(), dSetup.Seconds(), dSolve.Seconds(), det)
	}
}

// Table6 reproduces Table VI: point vs. cluster multicolor symmetric
// Gauss-Seidel as GMRES preconditioners on five systems: setup time,
// apply (solve) time, and GMRES iteration counts. Tolerance 1e-8, at most
// 800 iterations, as in the paper.
func Table6(cfg Config) {
	cfg = cfg.withDefaults()
	rt := par.New(cfg.Threads)
	const tol = 1e-8
	const maxIter = 800
	fmt.Fprintf(cfg.Out, "Table VI: point vs cluster multicolor SGS preconditioning GMRES, tol %.0e (scale=%.3g)\n", tol, cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-18s %10s %10s %14s %14s\n", "matrix", "P.Setup s", "C.Setup s", "P.Apply(it)", "C.Apply(it)")
	for _, name := range matrices.Table6Names() {
		spec, err := matrices.Get(name)
		if err != nil {
			panic(err)
		}
		a := spec.Matrix(cfg.Scale)
		n := a.Rows
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(0.01*float64(i)) + 0.5
		}

		var point *gs.Multicolor
		dPS := timeMean(cfg.Trials, func() {
			var err error
			point, err = gs.NewPoint(a, cfg.Threads)
			if err != nil {
				panic(err)
			}
		})
		var cluster *gs.Multicolor
		dCS := timeMean(cfg.Trials, func() {
			agg := coarsen.MIS2Aggregation(a.Graph(), coarsen.Options{Threads: cfg.Threads})
			var err error
			cluster, err = gs.NewCluster(a, agg, cfg.Threads)
			if err != nil {
				panic(err)
			}
		})

		solve := func(m krylov.Preconditioner) (krylov.Stats, time.Duration) {
			x := make([]float64, n)
			var st krylov.Stats
			d := timeMean(1, func() {
				for i := range x {
					x[i] = 0
				}
				st, _ = krylov.GMRESCtx(nil, rt, a, b, x, 50, krylov.Options{Tol: tol, MaxIter: maxIter, M: m})
			})
			return st, d
		}
		stP, dPA := solve(point)
		stC, dCA := solve(cluster)
		fmt.Fprintf(cfg.Out, "%-18s %10.4f %10.4f %9.4f(%3d) %9.4f(%3d)\n",
			name, dPS.Seconds(), dCS.Seconds(),
			dPA.Seconds(), stP.Iterations, dCA.Seconds(), stC.Iterations)
	}
}

// QualitySummary prints aggregate-quality statistics for each coarsening
// scheme on a mesh problem — an extension beyond the paper's tables
// (`experiments quality`).
func QualitySummary(cfg Config) {
	cfg = cfg.withDefaults()
	side := int(60 * math.Cbrt(cfg.Scale*8))
	if side < 8 {
		side = 8
	}
	g := gen.Laplace3D(side, side, side)
	fmt.Fprintf(cfg.Out, "Aggregate quality on Laplace3D %d^3\n", side)
	fmt.Fprintf(cfg.Out, "%-12s %8s %10s %8s %8s\n", "scheme", "aggs", "mean size", "min", "max")
	for _, s := range aggSchemes() {
		agg := s.Run(g, cfg.Threads)
		sizes := coarsen.Sizes(agg)
		mn, mx := sizes[0], sizes[0]
		for _, v := range sizes {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		fmt.Fprintf(cfg.Out, "%-12s %8d %10.2f %8d %8d\n",
			s.Name, agg.NumAggregates, float64(g.N)/float64(agg.NumAggregates), mn, mx)
	}
}
