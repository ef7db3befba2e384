package mis2go_test

import (
	"fmt"

	"mis2go"
)

// ExampleMIS2 computes and verifies a distance-2 maximal independent set.
func ExampleMIS2() {
	// A path 0-1-2-3-4-5-6: a valid MIS-2 needs members more than two
	// hops apart that dominate everything within two hops.
	g := mis2go.NewGraph(7, []mis2go.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6},
	})
	res := mis2go.MIS2(g, mis2go.MISOptions{})
	fmt.Println("size:", len(res.InSet))
	fmt.Println("valid:", mis2go.VerifyMIS2(g, res.InSet) == nil)
	// Output:
	// size: 2
	// valid: true
}

// ExampleAggregate coarsens a mesh with the paper's Algorithm 3.
func ExampleAggregate() {
	g := mis2go.Laplace2D(8, 8)
	agg := mis2go.Aggregate(g, 0)
	coarse := mis2go.CoarseGraph(g, agg)
	fmt.Println("coarsened:", g.N, "->", coarse.N, "vertices")
	fmt.Println("all assigned:", len(agg.Labels) == g.N)
	// Output:
	// coarsened: 64 -> 13 vertices
	// all assigned: true
}

// ExampleNewAMGSymbolic is the time-stepping re-setup flow: the symbolic
// setup (aggregation, SpGEMM patterns) runs once, and each step with new
// values on the same sparsity pattern pays only the cheap numeric phase
// via Refresh. A pattern change is rejected instead of silently
// rebuilding.
func ExampleNewAMGSymbolic() {
	g := mis2go.Laplace3D(8, 8, 8)
	a := mis2go.DirichletLaplacian(g, 6)
	h, err := mis2go.NewAMGSymbolic(a, mis2go.AMGOptions{MinCoarseSize: 40})
	if err != nil {
		panic(err)
	}
	if err := h.BuildNumeric(a); err != nil {
		panic(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	ws := mis2go.NewSolverWorkspace(a.Rows)
	for step := 0; step < 3; step++ {
		// New values, same pattern (e.g. a time-dependent coefficient).
		for p := range a.Val {
			a.Val[p] *= 1.1
		}
		if err := h.Refresh(a); err != nil {
			panic(err)
		}
		for i := range x {
			x[i] = 0
		}
		st, err := mis2go.SolveCG(a, b, x, mis2go.SolveOptions{Tol: 1e-10, MaxIter: 200, M: h, Work: ws}, 0)
		if err != nil {
			panic(err)
		}
		fmt.Printf("step %d converged: %v\n", step, st.Converged)
	}
	// A matrix with a different sparsity pattern is a clean error.
	other := mis2go.DirichletLaplacian(mis2go.Laplace3D(8, 8, 9), 6)
	fmt.Println("pattern change rejected:", h.Refresh(other) != nil)
	// Output:
	// step 0 converged: true
	// step 1 converged: true
	// step 2 converged: true
	// pattern change rejected: true
}

// ExampleNewAMG solves a Poisson problem with AMG-preconditioned CG.
func ExampleNewAMG() {
	g := mis2go.Laplace3D(8, 8, 8)
	a := mis2go.DirichletLaplacian(g, 6)
	h, err := mis2go.NewAMG(a, mis2go.AMGOptions{MinCoarseSize: 40})
	if err != nil {
		panic(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	st, err := mis2go.SolveCG(a, b, x, mis2go.SolveOptions{Tol: 1e-10, MaxIter: 200, M: h}, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", st.Converged)
	// Output:
	// converged: true
}
