// Fault-injection stress test: mixed cancel/panic/build-failure/slow
// traffic from 8+ goroutines under eviction pressure, with the fault
// hook driven deterministically per request through context values. The
// gates: no deadlock (watchdog), no goroutine leak (leakcheck), no
// invalidated-state reuse (every returned solution is bitwise identical
// to the sequential reference, faulted neighbors or not), and full
// recovery afterwards. Runs under -race in `make check`.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/krylov"
	"mis2go/internal/leakcheck"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

func TestServeStressFaultInjection(t *testing.T) {
	cfg := Config{
		AMG:           amg.Options{MinCoarseSize: 40},
		Tol:           1e-10,
		MaxIter:       200,
		CacheCapacity: 2, // below the pattern count: constant eviction/rebuild pressure
		MaxBatch:      4,
		FaultHook:     planHook,
	}
	s := New(cfg)
	rt := par.New(cfg.withDefaults().AMG.Threads)

	// Three structurally different patterns, three value sets each, with
	// sequential single-caller references (fresh build, CGCtx).
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

	// The leak baseline comes after the reference solves: the par worker
	// pool is already up (and allowlisted anyway), so anything new from
	// here on must be gone by the end of the test.
	base := leakcheck.Capture()

	faultKinds := []string{"fail", "panic", "cancel", "slow"}
	faultPhases := []FaultPhase{FaultBuild, FaultRefresh, FaultSolve, FaultAdmitted}

	const goroutines = 8
	requests := 60
	if testing.Short() {
		requests = 20
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				p := ((g + r/10) * 7) % len(systems)
				v := (r / 4 % len(scales))
				sys := systems[p][v]

				// Every 3rd request carries a deterministic fault plan;
				// kind and phase rotate so all combinations fire. A
				// "panic" at FaultAdmitted is remapped to "fail" — that
				// phase runs outside the isolation sections by contract.
				ctx := context.Background()
				seq := g*requests + r
				faulted := seq%3 == 0
				if faulted {
					kind := faultKinds[seq/3%len(faultKinds)]
					phase := faultPhases[seq/7%len(faultPhases)]
					if phase == FaultAdmitted && kind == "panic" {
						kind = "fail"
					}
					plan := &faultPlan{phase: phase, kind: kind}
					if kind == "cancel" {
						cctx, cancel := context.WithCancel(ctx)
						defer cancel()
						ctx = cctx
						plan.cancel = cancel
					}
					ctx = context.WithValue(ctx, faultPlanKey{}, plan)
				}

				x, _, err := s.Solve(ctx, sys.a, sys.b)
				if err != nil {
					// Faulted requests fail with their injected outcome,
					// one of the classified failure modes — an unclassified
					// error means a new, unhandled state. A clean request
					// never fails: a neighbor's fault resets at most the
					// entry, and the next request to take its lock rebuilds.
					if !faulted {
						errc <- fmt.Errorf("goroutine %d request %d: clean request failed: %w", g, r, err)
						return
					}
					if !errors.Is(err, errInjected) && !errors.Is(err, ErrPanic) && !isCancellation(err) {
						errc <- fmt.Errorf("goroutine %d request %d: unclassified failure: %w", g, r, err)
						return
					}
					continue
				}
				// A request that returns a solution — faulted or not —
				// must return the right one, bitwise: no invalidated or
				// half-refreshed state may ever leak into a result.
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(sys.want[i]) {
						errc <- fmt.Errorf("goroutine %d request %d: pattern %d values %d: bit mismatch at %d (%g vs %g)",
							g, r, p, v, i, x[i], sys.want[i])
						return
					}
				}
			}
		}(g)
	}

	// Deadlock watchdog: a request stranded on an entry lock shows up as
	// this timeout, with goroutine dumps from the runtime.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("stress traffic deadlocked (entry lock never released?)")
	}
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	m := s.Metrics()
	t.Logf("fault stress metrics: %+v", m)
	if m.Panics == 0 {
		t.Fatal("no panics were injected/contained; the stress mix is broken")
	}
	if m.Canceled == 0 {
		t.Fatal("no cancellations registered; the stress mix is broken")
	}
	if m.Builds == 0 || m.Evictions == 0 {
		t.Fatalf("traffic mix did not exercise build/evict: %+v", m)
	}

	// Recovery: after the storm, every system must solve cleanly and
	// bitwise-correctly through whatever cache state survived.
	for p := range systems {
		for v := range systems[p] {
			sys := systems[p][v]
			x, _, err := s.Solve(context.Background(), sys.a, sys.b)
			if err != nil {
				t.Fatalf("recovery solve (pattern %d values %d): %v", p, v, err)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(sys.want[i]) {
					t.Fatalf("recovery solve (pattern %d values %d): bit mismatch at %d", p, v, i)
				}
			}
		}
	}

	// Zero goroutine leaks: no request left parked on an entry lock.
	leakcheck.Check(t, base)
}
