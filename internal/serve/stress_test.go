// Concurrent-solve stress test: many goroutines drive mixed
// build/refresh/repeat traffic — including eviction pressure and
// same-operator bursts — through one Service, and every served solution
// must be bitwise identical to the sequential single-caller solve of the
// same system. Runs in the `make check` race suite; the -race run is the
// gate that flushes shared-solver-state data races out of the stack.
package serve

import (
	"context"
	"math"
	"sync"
	"testing"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// stressSystem is one (pattern, values) operator with its fixed RHS and
// the sequential reference solution.
type stressSystem struct {
	a    *sparse.Matrix
	b    []float64
	want []float64
}

func TestServeStressMixedTraffic(t *testing.T) {
	cfg := Config{
		AMG:           amg.Options{MinCoarseSize: 40},
		Tol:           1e-10,
		MaxIter:       200,
		CacheCapacity: 2, // below the pattern count: constant eviction/rebuild pressure
		MaxBatch:      4,
	}
	s := New(cfg)
	rt := par.New(cfg.withDefaults().AMG.Threads)

	// Three structurally different patterns, three value sets each.
	patterns := []*sparse.Matrix{
		gen.Laplacian(gen.Laplace3D(7, 7, 7), 0.05),
		gen.Laplacian(gen.Laplace2D(20, 20), 0.1),
		gen.WeightedLaplacian(gen.RandomFEM(6, 6, 6, 10, 3), 0.1, 11),
	}
	scales := []float64{1, 2.5, 0.5}
	systems := make([][]stressSystem, len(patterns))
	for p, base := range patterns {
		systems[p] = make([]stressSystem, len(scales))
		for v, sc := range scales {
			a := base.Clone()
			a.Scale(sc)
			b := make([]float64, a.Rows)
			for i := range b {
				b[i] = float64((i*13+p+v)%23) - 11
			}
			// Sequential single-caller reference: fresh build, CGCtx.
			h, err := amg.Build(a.Clone(), cfg.AMG)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, a.Rows)
			if _, err := krylov.CGCtx(nil, rt, a, append([]float64(nil), b...), want, krylov.Options{Tol: cfg.Tol, MaxIter: cfg.MaxIter, M: h}); err != nil {
				t.Fatal(err)
			}
			systems[p][v] = stressSystem{a: a, b: b, want: want}
		}
	}

	// Mixed traffic: each goroutine walks its own deterministic sequence
	// over (pattern, values) — bursts of repeats (reuse), value
	// rotation (refresh), pattern rotation (build/evict under the tiny
	// cache). Goroutines deliberately overlap so same-operator requests
	// queue on one entry lock together.
	const goroutines = 8
	requests := 60
	if testing.Short() {
		requests = 20
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				// Deterministic per-goroutine mix: repeats dominate, with
				// periodic value and pattern changes.
				p := ((g + r/10) * 7) % len(systems)
				v := (r / 4 % len(scales))
				sys := systems[p][v]
				x, st, err := s.Solve(ctx, sys.a, sys.b)
				if err != nil {
					errc <- err
					return
				}
				if len(st.Columns) != 1 || !st.Columns[0].Converged {
					errc <- errUnconverged{p, v}
					return
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(sys.want[i]) {
						t.Errorf("goroutine %d: pattern %d values %d: bit mismatch at %d (%g vs %g, outcome %v)",
							g, p, v, i, x[i], sys.want[i], st.Outcome)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	m := s.Metrics()
	t.Logf("stress metrics: %+v", m)
	if m.Requests != int64(goroutines*requests) {
		t.Fatalf("requests %d, want %d", m.Requests, goroutines*requests)
	}
	if m.Builds == 0 || m.Refreshes == 0 || m.ValueHits == 0 || m.Evictions == 0 {
		t.Fatalf("traffic mix did not exercise build/refresh/reuse/evict: %+v", m)
	}
}

type errUnconverged [2]int

func (e errUnconverged) Error() string {
	return "served solve did not converge"
}

// TestServeStressSmootherVariants drives concurrent traffic through
// services configured with every smoother — point multicolor
// Gauss-Seidel rebuilds color-set operators on every numeric refresh, the
// dense coarse solver refactorizes with reused pivots, and the setup
// paths draw heavily on the shared scratch arenas — so the -race run
// covers the remaining shared-state suspects (distinct hierarchies and
// gs operators used concurrently are the supported contract; one
// instance is single-caller and serialized by the service).
func TestServeStressSmootherVariants(t *testing.T) {
	base := gen.Laplacian(gen.Laplace3D(6, 6, 6), 0.05)
	smoothers := []amg.Smoother{amg.SmootherJacobi, amg.SmootherPointSGS}
	var wg sync.WaitGroup
	errc := make(chan error, len(smoothers)*2)
	for si, sm := range smoothers {
		cfg := Config{
			AMG:      amg.Options{MinCoarseSize: 30, Smoother: sm},
			Tol:      1e-8,
			MaxIter:  300,
			MaxBatch: 4,
		}
		s := New(cfg)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(si, g int, s *Service) {
				defer wg.Done()
				b := make([]float64, base.Rows)
				for i := range b {
					b[i] = float64((i+si)%9) - 4
				}
				for r := 0; r < 8; r++ {
					a := base.Clone()
					a.Scale(1 + 0.25*float64(r%3))
					if _, _, err := s.Solve(context.Background(), a, b); err != nil {
						errc <- err
						return
					}
				}
			}(si, g, s)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
