// Smoothers compares the V-cycle relaxation options (Jacobi as in the
// paper's Table V, point multicolor SGS) in an SA-AMG preconditioned CG
// solve — the smoother ablation DESIGN.md lists beyond the paper's fixed
// Jacobi setup.
package bench

import (
	"fmt"
	"math"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
)

// Smoothers runs the smoother ablation on a Laplace3D problem.
func Smoothers(cfg Config) {
	cfg = cfg.withDefaults()
	side := int(100 * math.Cbrt(cfg.Scale))
	if side < 8 {
		side = 8
	}
	g := gen.Laplace3D(side, side, side)
	a := gen.DirichletLaplacian(g, 6)
	rt := par.New(cfg.Threads)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = math.Sin(0.003*float64(i)) + 1
	}
	fmt.Fprintf(cfg.Out, "Smoother ablation: SA-AMG+CG on Laplace3D %d^3, tol 1e-10 (scale=%.3g)\n", side, cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-14s %7s %10s %10s\n", "smoother", "iters", "setup s", "solve s")
	for _, s := range []struct {
		name string
		sm   amg.Smoother
	}{
		{name: "Jacobi", sm: amg.SmootherJacobi},
		{name: "Point SGS", sm: amg.SmootherPointSGS},
	} {
		var h *amg.Hierarchy
		dSetup := timeMean(cfg.Trials, func() {
			var err error
			h, err = amg.Build(a, amg.Options{
				Threads: cfg.Threads, Smoother: s.sm, PreSweeps: 1, PostSweeps: 1,
			})
			if err != nil {
				panic(err)
			}
		})
		x := make([]float64, a.Rows)
		var st krylov.Stats
		dSolve := timeMean(1, func() {
			for i := range x {
				x[i] = 0
			}
			st, _ = krylov.CGCtx(nil, rt, a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 500, M: h})
		})
		fmt.Fprintf(cfg.Out, "%-14s %7d %10.4f %10.4f\n",
			s.name, st.Iterations, dSetup.Seconds(), dSolve.Seconds())
	}
}
