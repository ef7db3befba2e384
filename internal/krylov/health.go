package krylov

import (
	"errors"
	"fmt"
	"math"
)

// Classified numerical-failure sentinels. A solve that fails for a
// numerical reason wraps exactly one of these (plus ErrNotConverged for
// plain MaxIter exhaustion), so callers can branch on the failure class
// with errors.Is: a diverging solve wants a stronger method, a
// stagnating one a better preconditioner, a non-finite one rejection of
// the inputs, a breakdown an indefinite-capable solver.
var (
	// ErrDiverged is wrapped when the health guard sees the relative
	// residual exceed divergeFactor times the best residual seen so far
	// for divergeWindow consecutive iterations, and by the
	// false-convergence check when the recurrence residual that stopped
	// the iteration disagrees with the recomputed true residual beyond
	// falseConvergenceLimit (on singular systems the recurrence
	// residual drifts arbitrarily far from ||b - Ax|| and "converges"
	// on garbage).
	ErrDiverged = errors.New("krylov: solve diverged")
	// ErrStagnated is wrapped when the health guard sees no relative
	// progress of at least stagnationRel over stagnationWindow
	// consecutive iterations.
	ErrStagnated = errors.New("krylov: solve stagnated")
	// ErrNonFinite is wrapped when a residual norm becomes NaN or Inf —
	// the iteration has been destroyed by non-finite inputs or overflow
	// and no further iteration can recover it.
	ErrNonFinite = errors.New("krylov: non-finite residual")
	// ErrBreakdown is wrapped by the CG solvers when p^T A p <= 0: the
	// operator is not positive definite and the CG recurrence is invalid.
	ErrBreakdown = errors.New("krylov: CG breakdown (matrix not SPD?)")
)

// falseConvergenceSlack bounds the ordinary drift tolerated between
// the residual estimate that stopped the iteration (the CG recurrence
// norm, GMRES's preconditioned Givens estimate) and the recomputed
// true residual ||b - Ax|| / ||b||; see falseConvergenceLimit.
const falseConvergenceSlack = 100

// falseConvergenceLimit is the true-residual level above which a solve
// whose residual estimate passed tol is classified ErrDiverged (false
// convergence) instead of converged: max(falseConvergenceSlack*tol,
// sqrt(tol)). On healthy systems estimate and true residual agree to
// within a small factor at convergence — the slack term covers that.
// The sqrt(tol) term leaves room for the attainable-accuracy floor of
// ill-conditioned systems (~eps*cond), where the recurrence keeps
// descending below a tight tolerance while the true residual
// legitimately stalls orders of magnitude higher yet is still a usable
// answer; what the check rejects is the singular-system failure mode
// where the estimate "converges" while the true residual is O(1) or
// worse — an iterate that explains nothing of b. The check reads only
// the final recomputed residual every solver already produces for
// Stats, so it is always on (independent of Options.Health) and
// never perturbs the iteration. Non-positive tolerances disable it
// (no scale to measure drift against).
func falseConvergenceLimit(tol float64) float64 {
	if s := math.Sqrt(tol); s > falseConvergenceSlack*tol {
		return s
	}
	return falseConvergenceSlack * tol
}

// Thresholds of the health guard (Options.Health). The guard reads
// only the relative residual the convergence test already computed —
// it adds no reductions and never perturbs the recurrence — so a
// guarded solve that stays healthy is bitwise identical to an
// unguarded one at every worker count.
const (
	// A relative residual above divergeFactor times the best seen, for
	// divergeWindow consecutive iterations, is ErrDiverged; a single
	// spike is normal for CG on an ill-conditioned system.
	divergeFactor = 1e4
	divergeWindow = 5
	// stagnationWindow consecutive iterations without relative progress
	// of at least stagnationRel are ErrStagnated. The window is
	// deliberately long: ill-conditioned CG plateaus for long stretches
	// before converging, and a guard that kills those is worse than no
	// guard.
	stagnationWindow = 100
	stagnationRel    = 1e-3
)

// guardState is the per-solve state of a health guard: the best
// residual seen, the consecutive over-factor count, the last progress
// mark, and the iterations since it moved. The zero value with
// best/mark = +Inf is the initial state; see guardInit.
type guardState struct {
	best  float64
	mark  float64
	over  int
	stall int
}

func guardInit() guardState {
	return guardState{best: math.Inf(1), mark: math.Inf(1)}
}

// check advances the guard by one iteration with relative residual rel
// and returns a classified error if the solve is unhealthy. name labels
// the error message.
func (g *guardState) check(name string, iter int, rel float64) error {
	if math.IsNaN(rel) || math.IsInf(rel, 0) {
		return guardErr(ErrNonFinite, name, iter, rel)
	}
	if rel > divergeFactor*g.best {
		g.over++
		if g.over >= divergeWindow {
			return guardErr(ErrDiverged, name, iter, rel)
		}
	} else {
		g.over = 0
	}
	if rel <= g.mark*(1-stagnationRel) {
		g.mark = rel
		g.stall = 0
	} else {
		g.stall++
		if g.stall >= stagnationWindow {
			return guardErr(ErrStagnated, name, iter, rel)
		}
	}
	if rel < g.best {
		g.best = rel
	}
	return nil
}

// guardErr builds the classified error carrying the iteration and
// residual state at the moment the guard tripped.
func guardErr(sentinel error, name string, iter int, rel float64) error {
	return fmt.Errorf("%w: %s at iteration %d, relres %.3e", sentinel, name, iter, rel)
}
