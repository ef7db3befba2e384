// AMG example: the paper's first use case (§VI-F). Build a smoothed-
// aggregation multigrid preconditioner whose aggregates come from the
// parallel MIS-2 aggregation (Algorithm 3), and solve a 3D Poisson
// problem with preconditioned conjugate gradient — then compare against
// unpreconditioned CG to show why multigrid matters.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"mis2go"
)

func main() {
	const side = 40
	g := mis2go.Laplace3D(side, side, side)
	a := mis2go.DirichletLaplacian(g, 6)
	n := a.Rows
	fmt.Printf("problem: Laplace3D %d^3 = %d unknowns, %d nonzeros\n", side, n, a.NNZ())

	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.002*float64(i)) + 1
	}

	start := time.Now()
	h, err := mis2go.NewAMG(a, mis2go.AMGOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AMG setup: %d levels, operator complexity %.2f, %v\n",
		h.NumLevels(), h.OperatorComplexity(), time.Since(start).Round(time.Millisecond))

	x := make([]float64, n)
	start = time.Now()
	st, err := mis2go.SolveCG(a, b, x, mis2go.SolveOptions{Tol: 1e-10, MaxIter: 500, M: h}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AMG-CG:   %3d iterations, relres %.2e, %v\n",
		st.Iterations, st.RelResidual, time.Since(start).Round(time.Millisecond))

	y := make([]float64, n)
	start = time.Now()
	stPlain, err := mis2go.SolveCG(a, b, y, mis2go.SolveOptions{Tol: 1e-10, MaxIter: 5000}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain CG: %3d iterations, relres %.2e, %v\n",
		stPlain.Iterations, stPlain.RelResidual, time.Since(start).Round(time.Millisecond))
	fmt.Printf("iteration reduction: %.1fx\n", float64(stPlain.Iterations)/float64(st.Iterations))
}
