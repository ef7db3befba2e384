// Cluster Gauss-Seidel example: the paper's second use case (§VI-G,
// Table VI). Precondition GMRES with point multicolor symmetric
// Gauss-Seidel and with cluster multicolor SGS (Algorithm 4, clusters
// from MIS-2 aggregation), and compare setup time, solve time, and
// iteration counts.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"mis2go"
)

func main() {
	g := mis2go.Laplace3D(30, 30, 30)
	a := mis2go.WeightedGraphLaplacian(g, 0.05, 42)
	n := a.Rows
	fmt.Printf("problem: weighted Laplace3D 30^3 = %d unknowns\n", n)

	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.01*float64(i)) + 0.5
	}

	run := func(name string, build func() (*mis2go.GaussSeidel, error)) {
		start := time.Now()
		m, err := build()
		if err != nil {
			log.Fatal(err)
		}
		setup := time.Since(start)
		x := make([]float64, n)
		start = time.Now()
		st, err := mis2go.SolveGMRES(a, b, x, 50, mis2go.SolveOptions{Tol: 1e-8, MaxIter: 800, M: m}, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s setup %8v   solve %8v   %3d GMRES iterations (%d colors)\n",
			name, setup.Round(time.Microsecond), time.Since(start).Round(time.Microsecond),
			st.Iterations, m.NumColors)
	}

	run("point SGS", func() (*mis2go.GaussSeidel, error) { return mis2go.NewPointSGS(a, 0) })
	run("cluster SGS", func() (*mis2go.GaussSeidel, error) { return mis2go.NewClusterSGS(a, 0) })
}
