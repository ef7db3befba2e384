// BigScaling measures MIS-2 strong scaling at the paper's problem size
// (Laplace3D 100³, one million vertices), the companion measurement to
// Figures 4/5 (`experiments scaling`). Unlike the Figure 4/5 runners
// it uses one large graph instead of the (scaled-down) suite, so the
// parallel phases have enough work per worker.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mis2go/internal/gen"
	"mis2go/internal/mis"
)

// BigScaling runs the thread sweep on a single paper-sized structured
// problem. cfg.Scale scales the grid side (1.0 = 100³).
func BigScaling(cfg Config) {
	cfg = cfg.withDefaults()
	side := int(100 * math.Cbrt(cfg.Scale*20)) // default 0.05*20 = 1.0 → 100³
	if side < 10 {
		side = 10
	}
	g := gen.Laplace3D(side, side, side)
	fmt.Fprintf(cfg.Out, "Strong scaling at paper size: Laplace3D %d^3 (|V|=%d, |E|=%d)\n",
		side, g.N, g.NumEdges()/2)
	fmt.Fprintf(cfg.Out, "%8s %12s %9s %11s\n", "threads", "time", "speedup", "efficiency")
	maxT := runtime.GOMAXPROCS(0)
	configs := threadConfigs()
	configs = append(configs, 2*maxT)
	var t1 time.Duration
	for i, th := range configs {
		th := th
		best := time.Duration(1<<62 - 1)
		for k := 0; k < cfg.Trials; k++ {
			start := time.Now()
			mis.MIS2(g, mis.Options{Threads: th})
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if i == 0 {
			t1 = best
		}
		sp := float64(t1) / float64(best)
		fmt.Fprintf(cfg.Out, "%8d %12v %8.2fx %11.3f\n",
			th, best.Round(time.Microsecond), sp, sp/float64(th))
	}
}
