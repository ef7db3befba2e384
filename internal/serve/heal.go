// Self-healing solves: classification of numerical failures and the
// escalation ladder. A classified failure (diverged, stagnated, broken
// down, or MaxIter exhausted) is retried with a deterministic sequence
// of progressively stronger request-local configurations — a point-SGS
// smoother (unless the service already runs one), then a GMRES outer
// solve — each rung recorded in RequestStats.Escalations. The ladder is deterministic by
// construction: the rung sequence is a pure function of the service
// Config, each rung builds its hierarchy and runs its solve with the
// same deterministic kernels as the primary path, and rungs run
// request-local (no cache mutation), so the result of an escalated
// request is a pure function of (request, Config, rung index) —
// independent of cache state, concurrency, and worker count.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"mis2go/internal/amg"
	"mis2go/internal/krylov"
	"mis2go/internal/sparse"
)

// rung is one step of the escalation ladder: a name for stats/logs, the
// AMG options to rebuild with, and the outer solver choice. The names
// keep their "f64+" prefix because replies and RequestStats.Escalations
// expose them.
type rung struct {
	name  string
	amg   amg.Options
	gmres bool
}

// buildLadder derives the escalation sequence from the resolved config,
// skipping rungs identical to the primary serving configuration (they
// would deterministically fail the same way). At most
// cfg.MaxEscalations rungs are kept.
func buildLadder(cfg Config) []rung {
	sgs := cfg.AMG
	sgs.Smoother = amg.SmootherPointSGS
	var rungs []rung
	if cfg.AMG.Smoother != amg.SmootherPointSGS {
		rungs = append(rungs, rung{name: "f64+sgs", amg: sgs})
	}
	rungs = append(rungs, rung{name: "f64+gmres", amg: sgs, gmres: true})
	if len(rungs) > cfg.MaxEscalations {
		rungs = rungs[:cfg.MaxEscalations]
	}
	return rungs
}

// isNumericalFailure reports whether err is a classified numerical
// failure — the failure class the escalation ladder and the circuit
// breaker act on, as opposed to cancellations, contained panics, and
// request-shape rejections.
func isNumericalFailure(err error) bool {
	return errors.Is(err, krylov.ErrNotConverged) || errors.Is(err, krylov.ErrDiverged) ||
		errors.Is(err, krylov.ErrStagnated) || errors.Is(err, krylov.ErrNonFinite) ||
		errors.Is(err, krylov.ErrBreakdown) || errors.Is(err, amg.ErrBadValues)
}

// escalatable reports whether err is worth climbing the ladder for:
// numerical failures except non-finite residuals and rejected values —
// those are properties of the submitted inputs that no stronger method
// fixes, so they go straight to the breaker.
func (s *Service) escalatable(err error) bool {
	if len(s.rungs) == 0 {
		return false
	}
	if errors.Is(err, krylov.ErrNonFinite) || errors.Is(err, amg.ErrBadValues) {
		return false
	}
	return isNumericalFailure(err)
}

// escalate climbs the ladder for a request whose primary solve failed
// with the classified error origErr. On the first rung that converges
// every column it replaces the request's results and stats and returns
// a nil error; when every rung fails numerically it returns the
// original classified error (wrapped with the rungs attempted), so the
// caller sees the primary path's failure class, not the last rung's. A
// rung that is canceled or panics stops the ladder with that error.
// xs is the primary attempt's best-effort result, passed through
// unchanged when the ladder does not recover.
func (s *Service) escalate(ctx context.Context, a *sparse.Matrix, bs [][]float64, st *RequestStats, xs [][]float64, origErr error) ([][]float64, error) {
	for _, rg := range s.rungs {
		if ctx.Err() != nil {
			break
		}
		st.Escalations = append(st.Escalations, rg.name)
		s.m.escalations.Add(1)
		rxs, cols, rerr := s.solveFresh(ctx, a, bs, rg.amg, rg.gmres, true)
		if rerr == nil {
			st.Columns = cols
			s.m.escalationRecoveries.Add(1)
			return rxs, nil
		}
		if errors.Is(rerr, ErrPanic) {
			s.m.panics.Add(1)
			return xs, fmt.Errorf("serve: escalation rung %s: %w", rg.name, rerr)
		}
		if isCancellation(rerr) {
			return xs, fmt.Errorf("serve: escalation rung %s: %w", rg.name, rerr)
		}
		// Another numerical failure: the next rung is stronger.
	}
	if len(st.Escalations) > 0 {
		return xs, fmt.Errorf("serve: escalation exhausted (%s): %w", strings.Join(st.Escalations, ", "), origErr)
	}
	return xs, origErr
}
