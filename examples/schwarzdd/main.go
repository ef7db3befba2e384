// Domain-decomposition example: the third coarsening use case from the
// paper's introduction (overlapping Schwarz methods, citing FROSch).
// Build a two-level additive Schwarz preconditioner whose subdomains come
// from MIS-2-coarsened multilevel partitioning and whose coarse space is
// an MIS-2 aggregation, then compare CG iteration counts against
// block Jacobi (explicit zero overlap), one-level Schwarz and plain CG.
// Finally re-solve after a same-pattern value change through the
// numeric-only Refresh path.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"mis2go"
)

func main() {
	g := mis2go.Laplace2D(96, 96)
	a := mis2go.DirichletLaplacian(g, 4)
	n := a.Rows
	fmt.Printf("problem: Laplace2D 96^2 = %d unknowns\n", n)

	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.05*float64(i)) + 1
	}

	solve := func(name string, m mis2go.Preconditioner) {
		x := make([]float64, n)
		start := time.Now()
		st, err := mis2go.SolveCG(a, b, x, mis2go.SolveOptions{Tol: 1e-10, MaxIter: 3000, M: m}, 0)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-22s %4d CG iterations   %v\n",
			name, st.Iterations, time.Since(start).Round(time.Millisecond))
	}

	solve("plain CG", nil)

	// Overlap: 0 alone would mean "use the default"; OverlapSet makes the
	// zero explicit, giving non-overlapping block Jacobi.
	jacobi, err := mis2go.NewSchwarz(a, mis2go.SchwarzOptions{
		Subdomains: 16, Overlap: 0, OverlapSet: true, NoCoarse: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	solve("block Jacobi", jacobi)

	oneLevel, err := mis2go.NewSchwarz(a, mis2go.SchwarzOptions{Subdomains: 16, NoCoarse: true})
	if err != nil {
		log.Fatal(err)
	}
	solve("one-level Schwarz", oneLevel)

	twoLevel, err := mis2go.NewSchwarz(a, mis2go.SchwarzOptions{Subdomains: 16})
	if err != nil {
		log.Fatal(err)
	}
	st := twoLevel.Stats()
	fmt.Printf("(two-level: requested %d -> %d subdomains, overlap %d, %d AMG + %d dense locals, MIS-2 coarse space of %d)\n",
		st.RequestedSubdomains, st.Subdomains, st.Overlap, st.AMGLocal, st.DenseLocal, st.CoarseSize)
	solve("two-level Schwarz", twoLevel)

	// Time-stepping style value change: same sparsity pattern, scaled
	// values. Refresh replays only the numeric phase — partition, overlap
	// sets, gather schedules and symbolic factorizations are all reused.
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 1.5
	}
	start := time.Now()
	if err := twoLevel.Refresh(a2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("numeric-only refresh after value change: %v\n",
		time.Since(start).Round(time.Millisecond))
	a = a2
	solve("two-level (refreshed)", twoLevel)
}
