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
//
// With -schwarz K the preconditioner is a two-level overlapping
// additive Schwarz method over a K-subdomain partition (the
// domain-decomposition path) instead of a single AMG hierarchy; -overlap
// sets the BFS overlap depth explicitly (0 is honored as block Jacobi).
// The effective configuration — K is rounded up to a power of two, and
// empty parts are dropped — is printed, and -resetup exercises
// Preconditioner.Refresh instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/krylov"
	"mis2go/internal/order"
	"mis2go/internal/par"
	"mis2go/internal/schwarz"
	"mis2go/internal/sparse"
)

func main() {
	n := flag.Int("n", 50, "grid side (problem has n^3 unknowns)")
	aggName := flag.String("agg", "mis2agg", "aggregation: mis2agg, mis2basic, serial, d2c")
	tol := flag.Float64("tol", 1e-12, "CG relative tolerance")
	threads := flag.Int("threads", 0, "worker count (0 = all cores)")
	resetup := flag.Int("resetup", 0, "re-run the numeric setup N times on same-pattern perturbed values and report the re-setup ratio")
	precName := flag.String("precision", "f64", "operator value precision: f64, f32, auto (f32 below the finest level; CG recurrence stays f64)")
	rcm := flag.Bool("rcm", false, "reorder the system with reverse Cuthill-McKee before solving (solution is inverse-permuted back)")
	schwarzSubs := flag.Int("schwarz", 0, "precondition with K-subdomain two-level additive Schwarz instead of a single AMG hierarchy (rounded up to a power of two), 0 = off")
	overlap := flag.Int("overlap", -1, "Schwarz BFS overlap depth; 0 = explicit block Jacobi, -1 = default (1)")
	health := flag.Bool("health", true, "guard the CG iteration against divergence, stagnation, and non-finite residuals (classified errors instead of a burned iteration budget)")
	flag.Parse()
	prec, err := sparse.ParsePrecision(*precName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
		os.Exit(2)
	}

	g := gen.Laplace3D(*n, *n, *n)
	a := gen.DirichletLaplacian(g, 6)
	fmt.Printf("problem: Laplace3D %d^3, %d unknowns, %d nonzeros\n", *n, a.Rows, a.NNZ())

	// Optional bandwidth-reducing reordering: solve P·A·Pᵀ (Px) = Pb and
	// inverse-permute the solution back to the original numbering.
	var perm []int32
	if *rcm {
		bwBefore := order.Bandwidth(a)
		perm = order.RCM(a.Graph())
		a, err = order.PermuteMatrix(a, perm)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("rcm: bandwidth %d -> %d\n", bwBefore, order.Bandwidth(a))
	}

	// The solve runs against either preconditioner through the same
	// krylov interface; refresh drives the matching numeric-only replay.
	// aop is the outer CG operator: the hierarchy's own finest-level
	// operator on the AMG path, an auto-format conversion of a on the
	// Schwarz path.
	var precond krylov.Preconditioner
	var refresh func(sparse.Operator) error
	var aop sparse.Operator
	var setup time.Duration
	if *schwarzSubs > 0 {
		opt := schwarz.Options{Subdomains: *schwarzSubs, Threads: *threads}
		if *overlap >= 0 {
			opt.Overlap, opt.OverlapSet = *overlap, true
		}
		start := time.Now()
		p, err := schwarz.New(a, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		setup = time.Since(start)
		st := p.Stats()
		fmt.Printf("setup: schwarz %d subdomains (requested %d, %d parts), overlap %d, %d AMG + %d dense locals, coarse %d (amg=%v), %.3f s\n",
			st.Subdomains, st.RequestedSubdomains, st.Parts, st.Overlap,
			st.AMGLocal, st.DenseLocal, st.CoarseSize, st.CoarseAMG, setup.Seconds())
		precond, refresh = p, p.Refresh
		outerPrec := sparse.PrecisionF64
		if prec == sparse.PrecisionF32 {
			outerPrec = sparse.PrecisionF32
		}
		aop, err = sparse.NewOperatorPrec(a, sparse.FormatAuto, 0, outerPrec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		start := time.Now()
		h, err := amg.Build(a, amg.Options{Aggregate: aggFn, Threads: *threads, Precision: prec})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		setup = time.Since(start)
		fmt.Printf("setup: %d levels, operator complexity %.2f, %.3f s\n",
			h.NumLevels(), h.OperatorComplexity(), setup.Seconds())
		fmt.Printf("formats:")
		for _, l := range h.Levels {
			fmt.Printf(" %s/%s(%d)", l.Format(), l.Precision(), l.A.Rows)
		}
		fmt.Println()
		precond, aop = h, h.FineOperator()
		refresh = func(a2 sparse.Operator) error { return h.Refresh(a2.(*sparse.Matrix)) }
	}

	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%17)/17
	}
	if perm != nil {
		pb := make([]float64, len(b))
		if err := order.PermuteVector(pb, b, perm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		b = pb
	}
	x := make([]float64, a.Rows)
	var hg *krylov.Health
	if *health {
		hg = krylov.DefaultHealth()
	}
	start := time.Now()
	st, err := krylov.CGCtx(nil, par.New(*threads), aop, b, x, krylov.Options{Tol: *tol, MaxIter: 1000, M: precond, Health: hg})
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
		os.Exit(1)
	}
	if perm != nil {
		orig := make([]float64, len(x))
		if err := order.InversePermuteVector(orig, x, perm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		x = orig
	}
	xsum := 0.0
	for _, v := range x {
		xsum += v
	}
	fmt.Printf("solve: %d CG iterations, relres %.2e, xsum %.6e, %.3f s\n",
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
			if err := refresh(a2); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			total += time.Since(start)
		}
		mean := total / time.Duration(*resetup)
		fmt.Printf("re-setup: %d refreshes, mean %.3f s (full setup %.3f s, %.1fx faster)\n",
			*resetup, mean.Seconds(), setup.Seconds(), setup.Seconds()/mean.Seconds())
	}
}
