// Command amgsolve solves a Laplace3D problem with SA-AMG preconditioned
// conjugate gradient, using a selectable aggregation scheme — a
// command-line version of the paper's Table V experiment for one scheme.
//
// Usage:
//
//	amgsolve -n 60 -agg mis2agg -tol 1e-12
//
// With -resetup N the command additionally re-runs the numeric setup
// phase N times on value-perturbed same-pattern matrices
// (Hierarchy.Refresh) and reports the re-setup vs full-setup ratio —
// the time-stepping/Newton workload the symbolic/numeric split serves.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/krylov"
	"mis2go/internal/order"
	"mis2go/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the whole command: it parses args, prints the report to stdout
// and errors to os.Stderr, and returns the exit status (2 for a usage
// error, 1 for a failed setup or solve).
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("amgsolve", flag.ContinueOnError)
	n := fs.Int("n", 50, "grid side (problem has n^3 unknowns)")
	aggName := fs.String("agg", "mis2agg", "aggregation: mis2agg, mis2basic, serial, d2c")
	tol := fs.Float64("tol", 1e-12, "CG relative tolerance")
	threads := fs.Int("threads", 0, "worker count (0 = all cores)")
	resetup := fs.Int("resetup", 0, "re-run the numeric setup N times on same-pattern perturbed values and report the re-setup ratio")
	rcm := fs.Bool("rcm", false, "reorder the system with reverse Cuthill-McKee before solving (solution is inverse-permuted back)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(os.Stderr, "grid side -n %d, want at least 1\n", *n)
		return 2
	}
	aggs := map[string]amg.AggregateFunc{
		"mis2agg": func(g *graph.CSR) coarsen.Aggregation {
			return coarsen.MIS2Aggregation(g, coarsen.Options{Threads: *threads})
		},
		"mis2basic": func(g *graph.CSR) coarsen.Aggregation {
			return coarsen.Basic(g, coarsen.Options{Threads: *threads})
		},
		"serial": coarsen.SerialGreedy,
		"d2c":    func(g *graph.CSR) coarsen.Aggregation { return coarsen.D2C(g, *threads, true) },
	}
	aggFn, ok := aggs[*aggName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown aggregation %q\n", *aggName)
		return 2
	}

	g := gen.Laplace3D(*n, *n, *n)
	a := gen.DirichletLaplacian(g, 6)
	fmt.Fprintf(stdout, "problem: Laplace3D %d^3, %d unknowns, %d nonzeros\n", *n, a.Rows, a.NNZ())

	// Optional bandwidth-reducing reordering: solve P·A·Pᵀ (Px) = Pb and
	// inverse-permute the solution back to the original numbering.
	var perm []int32
	if *rcm {
		bwBefore := order.Bandwidth(a)
		perm = order.RCM(a.Graph())
		pa, err := order.PermuteMatrix(a, perm)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		a = pa
		fmt.Fprintf(stdout, "rcm: bandwidth %d -> %d\n", bwBefore, order.Bandwidth(a))
	}

	start := time.Now()
	h, err := amg.Build(a, amg.Options{Aggregate: aggFn, Threads: *threads})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	setup := time.Since(start)
	fmt.Fprintf(stdout, "setup: %d levels, operator complexity %.2f, %.3f s\n",
		h.NumLevels(), h.OperatorComplexity(), setup.Seconds())
	fmt.Fprint(stdout, "formats:")
	for _, l := range h.Levels {
		fmt.Fprintf(stdout, " %s(%d)", l.Format(), l.A.Rows)
	}
	fmt.Fprintln(stdout)

	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%17)/17
	}
	if perm != nil {
		pb := make([]float64, len(b))
		if err := order.PermuteVector(pb, b, perm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		b = pb
	}
	x := make([]float64, a.Rows)
	start = time.Now()
	st, err := krylov.CGCtx(nil, par.New(*threads), h.FineOperator(), b, x, krylov.Options{Tol: *tol, MaxIter: 1000, M: h, Health: true})
	solve := time.Since(start)
	if err != nil {
		// Name the failure class: a guard trip is actionable (wrong
		// discretization, lost SPD-ness) in a way "not converged" is not.
		switch {
		case errors.Is(err, krylov.ErrDiverged):
			fmt.Fprintf(os.Stderr, "solve diverged: %v\n", err)
		case errors.Is(err, krylov.ErrStagnated):
			fmt.Fprintf(os.Stderr, "solve stagnated: %v\n", err)
		case errors.Is(err, krylov.ErrNonFinite):
			fmt.Fprintf(os.Stderr, "solve produced non-finite values: %v\n", err)
		case errors.Is(err, krylov.ErrBreakdown):
			fmt.Fprintf(os.Stderr, "CG breakdown: %v\n", err)
		default:
			fmt.Fprintln(os.Stderr, err)
		}
		return 1
	}
	if perm != nil {
		orig := make([]float64, len(x))
		if err := order.InversePermuteVector(orig, x, perm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		x = orig
	}
	xsum := 0.0
	for _, v := range x {
		xsum += v
	}
	fmt.Fprintf(stdout, "solve: %d CG iterations, relres %.2e, xsum %.6e, %.3f s\n",
		st.Iterations, st.RelResidual, xsum, solve.Seconds())

	if *resetup > 0 {
		// Same pattern, new values each round: a global SPD-preserving
		// rescale, the shape of a time step or Newton update.
		a2 := a.Clone()
		var total time.Duration
		for it := 1; it <= *resetup; it++ {
			s := 1 + 0.01*float64(it)
			for p := range a2.Val {
				a2.Val[p] = a.Val[p] * s
			}
			start = time.Now()
			if err := h.Refresh(a2); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			total += time.Since(start)
		}
		mean := total / time.Duration(*resetup)
		fmt.Fprintf(stdout, "re-setup: %d refreshes, mean %.3f s (full setup %.3f s, %.1fx faster)\n",
			*resetup, mean.Seconds(), setup.Seconds(), setup.Seconds()/mean.Seconds())
	}
	return 0
}
