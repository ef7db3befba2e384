// Many-clients example: the workload the concurrent solve service
// exists for. Sixteen goroutines play independent clients of one
// SolveService — think request handlers in a web backend, each carrying
// its own linear system. Traffic is realistically mixed: a handful of
// distinct sparsity patterns (different meshes), per-client value
// variations on them (different material parameters), and plain repeats.
//
// The service amortizes everything that can be amortized: first request
// per pattern builds an AMG hierarchy (cached, LRU), same-pattern
// requests with new values pay only the numeric Refresh, and identical
// operators pay nothing. The run ends by replaying the same traffic
// sequentially with a fresh build per request — the naive single-caller
// baseline — and printing the speedup, plus the cache outcomes that
// explain it.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"mis2go"
)

func main() {
	const (
		clients  = 16
		requests = 24 // per client
	)

	// Three distinct sparsity patterns with three value sets each.
	patterns := []*mis2go.Matrix{
		mis2go.GraphLaplacian(mis2go.Laplace3D(16, 16, 16), 0.05),
		mis2go.GraphLaplacian(mis2go.Laplace2D(64, 64), 0.1),
		mis2go.WeightedGraphLaplacian(mis2go.RandomFEM(10, 10, 10, 12, 7), 0.1, 3),
	}
	const valueSets = 3
	systems := make([][]*mis2go.Matrix, len(patterns))
	rhs := make([][]float64, len(patterns))
	for p, base := range patterns {
		systems[p] = make([]*mis2go.Matrix, valueSets)
		for v := 0; v < valueSets; v++ {
			m := base.Clone()
			m.Scale(1 + 0.5*float64(v))
			systems[p][v] = m
		}
		b := make([]float64, base.Rows)
		for i := range b {
			b[i] = 1 + float64((i+p)%13)/13
		}
		rhs[p] = b
	}
	fmt.Printf("traffic: %d clients x %d requests over %d patterns x %d value sets\n",
		clients, requests, len(patterns), valueSets)

	svc := mis2go.NewSolveService(mis2go.ServeConfig{Tol: 1e-8, MaxIter: 400})

	// pick maps (client, request) to its (pattern, values) pair: bursts
	// of repeats with periodic value and pattern rotation, staggered per
	// client so same-pattern requests overlap in time.
	pick := func(c, r int) (int, int) {
		return (c/6 + r/8) % len(patterns), r / 3 % valueSets
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				p, v := pick(c, r)
				if _, _, err := svc.Solve(context.Background(), systems[p][v], rhs[p]); err != nil {
					log.Fatalf("client %d: %v", c, err)
				}
			}
		}(c)
	}
	wg.Wait()
	served := time.Since(start)

	m := svc.Metrics()
	fmt.Printf("served %d requests in %.3f s (%.0f req/s)\n",
		m.Requests, served.Seconds(), float64(m.Requests)/served.Seconds())
	fmt.Printf("  cache: %d builds, %d refreshes, %d free reuses, %d evictions\n",
		m.Builds, m.Refreshes, m.ValueHits, m.Evictions)

	// The naive baseline: every request pays a fresh hierarchy build and
	// a solo solve, one after another.
	start = time.Now()
	for c := 0; c < clients; c++ {
		for r := 0; r < requests; r++ {
			p, v := pick(c, r)
			a := systems[p][v]
			h, err := mis2go.NewAMG(a, mis2go.AMGOptions{})
			if err != nil {
				log.Fatal(err)
			}
			x := make([]float64, a.Rows)
			if _, err := mis2go.SolveCG(a, rhs[p], x, mis2go.SolveOptions{Tol: 1e-8, MaxIter: 400, M: h}, 0); err != nil {
				log.Fatal(err)
			}
		}
	}
	sequential := time.Since(start)
	fmt.Printf("sequential full solves of the same mix: %.3f s\n", sequential.Seconds())
	fmt.Printf("service speedup: %.2fx\n", sequential.Seconds()/served.Seconds())
}
