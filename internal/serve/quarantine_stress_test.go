// Poison-pattern storm test: concurrent traffic mixing healthy systems
// with three poison classes — an indefinite operator (CG breakdown), a
// NaN right-hand side (non-finite residual), and an exactly singular
// operator (divergence) — against a service with the circuit breaker
// armed. The gates: every poison request fails with a classified
// numerical error or a quarantine rejection (never an unclassified
// error), healthy traffic stays bitwise identical to its sequential
// references throughout, the breaker opens and (for a transient poison)
// probes half-open and closes again, no deadlock (watchdog), and zero
// goroutine leaks. Runs under -race in `make check`.
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

func TestServeStressPoisonQuarantine(t *testing.T) {
	cfg := Config{
		AMG:           amg.Options{MinCoarseSize: 40},
		Tol:           1e-10,
		MaxIter:       200,
		CacheCapacity: 2, // below the pattern count: eviction pressure during the storm
		MaxBatch:      4,
		// The ladder is off: every poison request keeps its classified
		// failure, so the breaker sees each one (the ladder has its own
		// tests; here it would only slow the storm down).
		MaxEscalations:      -1,
		QuarantineThreshold: 3,
		QuarantineCooldown:  10 * time.Millisecond,
	}
	s := New(cfg)
	rcfg := cfg.withDefaults()
	rt := par.New(rcfg.AMG.Threads)

	// Healthy traffic: two patterns, two value sets each, with
	// sequential references through the same guarded batch kernel.
	type system struct {
		a    *sparse.Matrix
		b    []float64
		want []float64
	}
	patterns := []*sparse.Matrix{
		gen.Laplacian(gen.Laplace3D(7, 7, 7), 0.05),
		gen.Laplacian(gen.Laplace2D(20, 20), 0.1),
	}
	reference := func(a *sparse.Matrix, b []float64) []float64 {
		h, err := amg.Build(a, rcfg.AMG)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, a.Rows)
		if _, err := krylov.CGCtx(nil, rt, a, append([]float64(nil), b...), want, krylov.Options{Tol: rcfg.Tol, MaxIter: rcfg.MaxIter, M: h, Health: true}); err != nil {
			t.Fatal(err)
		}
		return want
	}
	var healthy []system
	for p, base := range patterns {
		for v, sc := range []float64{1, 2.5} {
			a := base.Clone()
			a.Scale(sc)
			b := make([]float64, a.Rows)
			for i := range b {
				b[i] = float64((i*13+p+v)%23) - 11
			}
			healthy = append(healthy, system{a: a, b: b, want: reference(a, b)})
		}
	}

	// Poison traffic. Each class has its own pattern (the breaker keys
	// on pattern fingerprints, so healthy patterns are never tainted):
	// an indefinite operator (breakdown), an exactly singular Neumann
	// Laplacian (divergence), and a healthy "transient" pattern served
	// NaN right-hand sides during the storm — the one that must recover
	// through a half-open probe afterwards.
	indefinite := gen.Laplacian(gen.Laplace2D(14, 14), 0.1)
	indefinite.Scale(-1)
	singular := gen.Laplacian(gen.Laplace2D(16, 16), 0)
	transient := gen.Laplacian(gen.Laplace3D(6, 6, 6), 0.1)
	rhsFor := func(a *sparse.Matrix, nan bool) []float64 {
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1 + float64(i%5)
		}
		if nan {
			b[len(b)/3] = math.NaN()
		}
		return b
	}
	transientWant := reference(transient, rhsFor(transient, false))

	base := leakcheck.Capture()

	const goroutines = 8
	requests := 40
	if testing.Short() {
		requests = 12
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				seq := g*requests + r
				if seq%3 == 0 {
					// Poison request, class rotating.
					var a *sparse.Matrix
					var b []float64
					switch (seq / 3) % 3 {
					case 0:
						a, b = indefinite, rhsFor(indefinite, false)
					case 1:
						a, b = singular, rhsFor(singular, false)
					default:
						a, b = transient, rhsFor(transient, true)
					}
					_, _, err := s.Solve(context.Background(), a, b)
					if err == nil {
						errc <- fmt.Errorf("goroutine %d request %d: poison solve returned success", g, r)
						return
					}
					if !isNumericalFailure(err) && !errors.Is(err, ErrQuarantined) {
						errc <- fmt.Errorf("goroutine %d request %d: unclassified poison failure: %w", g, r, err)
						return
					}
					continue
				}
				sys := healthy[seq%len(healthy)]
				x, _, err := s.Solve(context.Background(), sys.a, sys.b)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d request %d: healthy solve failed: %w", g, r, err)
					return
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(sys.want[i]) {
						errc <- fmt.Errorf("goroutine %d request %d: healthy bit mismatch at %d (%g vs %g)",
							g, r, i, x[i], sys.want[i])
						return
					}
				}
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("poison storm deadlocked")
	}
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	m := s.Metrics()
	t.Logf("poison storm metrics: %+v", m)
	if m.NumericalFailures == 0 {
		t.Fatal("no classified numerical failures; the poison mix is broken")
	}
	if m.Quarantines == 0 {
		t.Fatal("the breaker never opened under sustained poison")
	}
	if m.QuarantineRejections == 0 {
		t.Fatal("no request was failed fast; the breaker is not saving any work")
	}

	// Half-open recovery: the transient pattern was only ever poisoned
	// through its right-hand sides; healthy requests against it must get
	// through a probe and close its breaker within the backoff budget
	// (cooldowns double per failed probe, capped at 64x the 10ms base).
	healthyB := rhsFor(transient, false)
	deadline := time.Now().Add(30 * time.Second)
	for {
		x, st, err := s.Solve(context.Background(), transient, healthyB)
		if err == nil {
			if !st.Converged {
				t.Fatalf("transient recovery not converged: %+v", st)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(transientWant[i]) {
					t.Fatalf("transient recovery bit mismatch at %d", i)
				}
			}
			break
		}
		var qe *QuarantinedError
		if !errors.As(err, &qe) {
			t.Fatalf("transient recovery: unexpected failure: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("transient pattern never recovered: %v (metrics %+v)", err, s.Metrics())
		}
		time.Sleep(qe.RetryAfter + time.Millisecond)
	}
	m = s.Metrics()
	if m.Probes == 0 || m.ProbeSuccesses == 0 {
		t.Fatalf("recovery did not go through a half-open probe: %+v", m)
	}
	// Closed for good: an immediate follow-up must not probe or reject.
	if _, _, err := s.Solve(context.Background(), transient, healthyB); err != nil {
		t.Fatalf("post-recovery solve failed: %v", err)
	}
	if got := s.Metrics(); got.Probes != m.Probes {
		t.Fatalf("breaker still probing after recovery: %+v", got)
	}

	// Healthy sweep through whatever cache state survived.
	for i, sys := range healthy {
		x, _, err := s.Solve(context.Background(), sys.a, sys.b)
		if err != nil {
			t.Fatalf("post-storm healthy solve %d: %v", i, err)
		}
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(sys.want[j]) {
				t.Fatalf("post-storm healthy solve %d: bit mismatch at %d", i, j)
			}
		}
	}

	leakcheck.Check(t, base)
}

// TestServeHealthyBitwiseAcrossWorkerCounts: the health guard reads
// only residual norms the convergence test already computes, so the
// healthy path through a guarded service is bitwise identical at every
// worker count.
func TestServeHealthyBitwiseAcrossWorkerCounts(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(7, 7, 7), 0.05)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64((i*13)%23) - 11
	}
	var want []float64
	for _, threads := range []int{1, 2, 8} {
		cfg := Config{
			AMG:     amg.Options{MinCoarseSize: 40, Threads: threads},
			Tol:     1e-10,
			MaxIter: 200,
		}
		s := New(cfg)
		x, st, err := s.Solve(context.Background(), a, b)
		if err != nil {
			t.Fatalf("threads %d: %v", threads, err)
		}
		if !st.Converged {
			t.Fatalf("threads %d: not converged: %+v", threads, st)
		}
		if want == nil {
			want = x
			continue
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("threads %d: bit mismatch at %d (%g vs %g)", threads, i, x[i], want[i])
			}
		}
	}
}
