// Time-stepping example: the workload the symbolic/numeric setup split
// exists for. An implicit Euler step of a heat equation with a
// time-dependent diffusion coefficient solves
//
//	(I/dt + kappa(t) * L) u_{t+1} = u_t / dt
//
// every step: the operator's sparsity pattern never changes while its
// values do. The AMG symbolic phase (graph extraction, MIS-2
// aggregation, SpGEMM patterns) runs once via NewAMGSymbolic; each step
// re-runs only the cheap numeric phase with Hierarchy.Refresh and
// solves through a reused CG workspace — zero steady-state allocations
// in both the re-setup and the solve.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"mis2go"
)

func main() {
	const (
		side  = 32
		steps = 10
		dt    = 0.05
	)
	g := mis2go.Laplace3D(side, side, side)
	base := mis2go.GraphLaplacian(g, 0) // kappa-independent stiffness L
	n := base.Rows
	fmt.Printf("problem: Laplace3D %d^3 = %d unknowns, %d nonzeros, %d implicit Euler steps\n",
		side, n, base.NNZ(), steps)

	// The stepped operator shares L's pattern; diagPos locates the
	// diagonal entries the I/dt term lands on.
	a := base.Clone()
	diagPos := make([]int, n)
	for i := 0; i < n; i++ {
		diagPos[i] = -1
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if int(a.Col[p]) == i {
				diagPos[i] = p
				break
			}
		}
		if diagPos[i] < 0 {
			log.Fatalf("row %d has no diagonal entry", i)
		}
	}
	// assemble writes A(t) = kappa(t)*L + I/dt in place (same pattern).
	assemble := func(t float64) {
		kappa := 1 + 0.5*math.Sin(2*math.Pi*t)
		for p := range a.Val {
			a.Val[p] = kappa * base.Val[p]
		}
		for _, p := range diagPos {
			a.Val[p] += 1 / dt
		}
	}

	// Symbolic setup once; the first numeric fill completes the build.
	assemble(0)
	start := time.Now()
	h, err := mis2go.NewAMGSymbolic(a, mis2go.AMGOptions{})
	if err != nil {
		log.Fatal(err)
	}
	symbolic := time.Since(start)
	start = time.Now()
	if err := h.BuildNumeric(a); err != nil {
		log.Fatal(err)
	}
	numeric := time.Since(start)
	fmt.Printf("setup: %d levels, operator complexity %.2f — symbolic %v + numeric %v\n",
		h.NumLevels(), h.OperatorComplexity(), symbolic.Round(time.Millisecond), numeric.Round(time.Millisecond))

	u := make([]float64, n)
	rhs := make([]float64, n)
	x := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(0.01*float64(i)) + 1 // initial temperature field
	}
	ws := mis2go.NewSolverWorkspace(n)

	var refreshTotal, solveTotal time.Duration
	for step := 1; step <= steps; step++ {
		t := float64(step) * dt
		assemble(t)
		start = time.Now()
		if err := h.Refresh(a); err != nil {
			log.Fatal(err)
		}
		refreshTotal += time.Since(start)

		for i := range rhs {
			rhs[i] = u[i] / dt
			x[i] = u[i] // warm start from the previous field
		}
		start = time.Now()
		st, err := mis2go.SolveCG(a, rhs, x, mis2go.SolveOptions{Tol: 1e-10, MaxIter: 200, M: h, Work: ws}, 0)
		if err != nil {
			log.Fatal(err)
		}
		solveTotal += time.Since(start)
		copy(u, x)
		fmt.Printf("step %2d: kappa %.3f, %2d CG iterations, relres %.2e\n",
			step, 1+0.5*math.Sin(2*math.Pi*t), st.Iterations, st.RelResidual)
	}

	// What the cached symbolic phase saved: one full rebuild per step.
	start = time.Now()
	if _, err := mis2go.NewAMG(a, mis2go.AMGOptions{}); err != nil {
		log.Fatal(err)
	}
	fullSetup := time.Since(start)
	meanRefresh := refreshTotal / steps
	fmt.Printf("re-setup: mean %v/step vs full rebuild %v (%.1fx faster); total solve %v\n",
		meanRefresh.Round(time.Microsecond), fullSetup.Round(time.Millisecond),
		fullSetup.Seconds()/meanRefresh.Seconds(), solveTotal.Round(time.Millisecond))
}
