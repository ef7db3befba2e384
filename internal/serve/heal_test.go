// Tests for the self-healing layer: escalation-ladder construction and
// recovery, request-level convergence stats, per-request deadlines, and
// the poison-pattern circuit breaker's open/probe/close lifecycle.
package serve

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// stallConfig is an f64 service whose MaxIter budget sits between the
// iteration counts of its two smoothers on testProblem(12, 0.1) at tol
// 1e-10: the primary Jacobi-smoothed solve needs 11 iterations and
// exhausts the budget of 9 (a classified krylov.ErrNotConverged), while
// the point-SGS hierarchy of the f64+sgs rung converges in 7.
func stallConfig() Config {
	return Config{
		AMG:     amg.Options{MinCoarseSize: 40},
		Tol:     1e-10,
		MaxIter: 9,
	}
}

func TestEscalationLadderConstruction(t *testing.T) {
	base := Config{AMG: amg.Options{MinCoarseSize: 40}}.withDefaults()
	names := func(rungs []rung) []string {
		var out []string
		for _, r := range rungs {
			out = append(out, r.name)
		}
		return out
	}
	got := names(buildLadder(base))
	if len(got) != 2 || got[0] != "f64+sgs" || got[1] != "f64+gmres" {
		t.Fatalf("ladder = %v, want [f64+sgs f64+gmres]", got)
	}
	ladder := buildLadder(base)
	for _, r := range ladder {
		if r.amg.Smoother != amg.SmootherPointSGS {
			t.Fatalf("rung %s smoother = %v, want point SGS", r.name, r.amg.Smoother)
		}
	}
	if ladder[0].gmres || !ladder[1].gmres {
		t.Fatalf("outer solvers: %s gmres=%v, %s gmres=%v", ladder[0].name, ladder[0].gmres, ladder[1].name, ladder[1].gmres)
	}

	// A service already smoothing with point SGS skips the redundant
	// smoother rung.
	sgs := base
	sgs.AMG.Smoother = amg.SmootherPointSGS
	if got = names(buildLadder(sgs)); len(got) != 1 || got[0] != "f64+gmres" {
		t.Fatalf("point-SGS ladder = %v, want [f64+gmres]", got)
	}

	// MaxEscalations truncates deterministically.
	short := base
	short.MaxEscalations = 1
	if got = names(buildLadder(short)); len(got) != 1 || got[0] != "f64+sgs" {
		t.Fatalf("truncated ladder = %v, want [f64+sgs]", got)
	}
}

// TestEscalationRecoversBySGSRung: the end-to-end recovery acceptance.
// The primary solve of stallConfig exhausts its MaxIter budget; the
// ladder's f64+sgs rung recovers it, and the recovered solution is
// bitwise identical to a sequential solve with the rung's own
// configuration.
func TestEscalationRecoversBySGSRung(t *testing.T) {
	a, b := testProblem(12, 0.1)
	cfg := stallConfig()
	s := New(cfg)
	x, st, err := s.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatalf("escalation did not recover: %v (rungs %v)", err, st.Escalations)
	}
	if len(st.Escalations) != 1 || st.Escalations[0] != "f64+sgs" {
		t.Fatalf("want recovery by the f64+sgs rung, got rungs %v", st.Escalations)
	}
	if !st.Converged {
		t.Fatalf("recovered request not marked converged: %+v", st)
	}
	m := s.Metrics()
	if m.Escalations != 1 || m.EscalationRecoveries != 1 {
		t.Fatalf("escalation metrics not recorded: %+v", m)
	}
	if m.NumericalFailures != 0 {
		t.Fatalf("a recovered request must not count as a numerical failure: %+v", m)
	}

	// Bitwise reference: the rung's exact configuration (point-SGS
	// hierarchy, guarded batch CG on the request's own matrix).
	rcfg := cfg.withDefaults()
	ropt := rcfg.AMG
	ropt.Smoother = amg.SmootherPointSGS
	h, err := amg.Build(a, ropt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	rt := par.New(rcfg.AMG.Threads)
	if _, err := krylov.CGCtx(nil, rt, a, append([]float64(nil), b...), want, krylov.Options{Tol: rcfg.Tol, MaxIter: rcfg.MaxIter, M: h, Health: true}); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			t.Fatalf("escalated solution not bitwise reproducible: x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// TestEscalationDisabled: MaxEscalations < 0 turns the ladder off; the
// classified primary failure surfaces unchanged.
func TestEscalationDisabled(t *testing.T) {
	a, b := testProblem(12, 0.1)
	cfg := stallConfig()
	cfg.MaxEscalations = -1
	cfg.QuarantineThreshold = -1
	s := New(cfg)
	_, st, err := s.Solve(context.Background(), a, b)
	if err == nil {
		t.Fatal("expected a classified failure with the ladder disabled")
	}
	if !isNumericalFailure(err) {
		t.Fatalf("want a classified numerical failure, got %v", err)
	}
	if len(st.Escalations) != 0 {
		t.Fatalf("ladder ran while disabled: %v", st.Escalations)
	}
	if st.Converged {
		t.Fatal("failed request marked converged")
	}
	if m := s.Metrics(); m.NumericalFailures != 1 || m.Escalations != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestServeStatsConvergedResidual: satellite coverage for the explicit
// per-request convergence signal.
func TestServeStatsConvergedResidual(t *testing.T) {
	a, b := testProblem(8, 0.1)
	s := New(testConfig())
	_, st, err := s.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("healthy solve not marked converged: %+v", st)
	}
	if st.RelResidual <= 0 || st.RelResidual >= 1e-10 {
		t.Fatalf("RelResidual = %g, want in (0, tol)", st.RelResidual)
	}
}

// TestServeSolveTimeout: Config.SolveTimeout bounds the request end to
// end; an expired deadline surfaces as a cancellation wrapping
// context.DeadlineExceeded. A slow fault hook pins the request past its
// deadline deterministically (timer granularity makes a bare tiny
// timeout racy against a fast solve).
func TestServeSolveTimeout(t *testing.T) {
	a, b := testProblem(12, 0.1)
	cfg := testConfig()
	cfg.SolveTimeout = time.Millisecond
	cfg.FaultHook = func(p FaultPhase, ctx context.Context) error {
		if p == FaultAdmitted {
			<-ctx.Done() // the per-request deadline, by construction
		}
		return nil
	}
	s := New(cfg)
	_, _, err := s.Solve(context.Background(), a, b)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if m := s.Metrics(); m.NumericalFailures != 0 {
		t.Fatalf("a deadline must not count as a numerical failure: %+v", m)
	}
}

// poisonService returns a service with a 2-failure quarantine threshold,
// a short cooldown, and the ladder off (every poisoned request keeps its
// classified failure), plus a healthy matrix and a poisoned (NaN)
// right-hand side for it.
func poisonService(cooldown time.Duration) (*Service, *sparse.Matrix, []float64, []float64) {
	cfg := Config{
		AMG:                 amg.Options{MinCoarseSize: 40},
		Tol:                 1e-10,
		MaxIter:             200,
		MaxEscalations:      -1,
		QuarantineThreshold: 2,
		QuarantineCooldown:  cooldown,
	}
	s := New(cfg)
	a, good := testProblem(6, 0.1)
	bad := append([]float64(nil), good...)
	bad[3] = math.NaN()
	return s, a, good, bad
}

// TestQuarantineOpensAndRejects: consecutive classified failures open
// the pattern's breaker; further requests fail fast with ErrQuarantined
// carrying a Retry-After, paying no solve.
func TestQuarantineOpensAndRejects(t *testing.T) {
	s, a, _, bad := poisonService(time.Minute)
	for i := 0; i < 2; i++ {
		if _, _, err := s.Solve(context.Background(), a, bad); !errors.Is(err, krylov.ErrNonFinite) {
			t.Fatalf("poison solve %d: want ErrNonFinite, got %v", i, err)
		}
	}
	_, _, err := s.Solve(context.Background(), a, bad)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("want ErrQuarantined, got %v", err)
	}
	var qe *QuarantinedError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 {
		t.Fatalf("quarantine rejection must carry a positive RetryAfter: %v", err)
	}
	m := s.Metrics()
	if m.Quarantines != 1 || m.QuarantineRejections != 1 || m.NumericalFailures != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	// The rejection paid no build and no solve (the two poison solves
	// paid one build + one value hit and two batch solves).
	if m.Builds != 1 || m.BatchSolves != 2 {
		t.Fatalf("fail-fast rejection still paid build/solve: %+v", m)
	}
}

// TestQuarantineProbeRecovers: after the cooldown the first request is
// the half-open probe; a successful probe closes the breaker and
// traffic flows normally again.
func TestQuarantineProbeRecovers(t *testing.T) {
	s, a, good, bad := poisonService(10 * time.Millisecond)
	for i := 0; i < 2; i++ {
		s.Solve(context.Background(), a, bad)
	}
	if _, _, err := s.Solve(context.Background(), a, good); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("breaker should be open, got %v", err)
	}
	time.Sleep(15 * time.Millisecond)
	x, st, err := s.Solve(context.Background(), a, good)
	if err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if !st.Converged || len(x) == 0 {
		t.Fatalf("probe returned no converged solution: %+v", st)
	}
	m := s.Metrics()
	if m.Probes != 1 || m.ProbeSuccesses != 1 || m.ProbeFailures != 0 {
		t.Fatalf("probe metrics: %+v", m)
	}
	// Closed again: the next request is a plain solve, not a probe.
	if _, _, err := s.Solve(context.Background(), a, good); err != nil {
		t.Fatalf("post-recovery solve failed: %v", err)
	}
	if m = s.Metrics(); m.Probes != 1 {
		t.Fatalf("breaker did not close after the successful probe: %+v", m)
	}
}

// TestQuarantineProbeFailureBacksOff: a failed probe re-quarantines
// immediately with a doubled cooldown.
func TestQuarantineProbeFailureBacksOff(t *testing.T) {
	s, a, _, bad := poisonService(10 * time.Millisecond)
	for i := 0; i < 2; i++ {
		s.Solve(context.Background(), a, bad)
	}
	time.Sleep(15 * time.Millisecond)
	if _, _, err := s.Solve(context.Background(), a, bad); !errors.Is(err, krylov.ErrNonFinite) {
		t.Fatalf("failed probe should return its classified error, got %v", err)
	}
	// Re-quarantined: the very next request fails fast with the doubled
	// cooldown.
	_, _, err := s.Solve(context.Background(), a, bad)
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("want fail-fast after failed probe, got %v", err)
	}
	if qe.RetryAfter <= 10*time.Millisecond {
		t.Fatalf("cooldown did not back off: RetryAfter %v", qe.RetryAfter)
	}
	m := s.Metrics()
	if m.ProbeFailures != 1 || m.Quarantines != 2 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestQuarantineDisabled: QuarantineThreshold < 0 turns the breaker
// off; repeated failures keep paying full price but are never rejected.
func TestQuarantineDisabled(t *testing.T) {
	cfg := Config{
		AMG:                 amg.Options{MinCoarseSize: 40},
		Tol:                 1e-10,
		MaxIter:             200,
		MaxEscalations:      -1,
		QuarantineThreshold: -1,
	}
	s := New(cfg)
	a, good := testProblem(6, 0.1)
	bad := append([]float64(nil), good...)
	bad[0] = math.NaN()
	for i := 0; i < 4; i++ {
		if _, _, err := s.Solve(context.Background(), a, bad); errors.Is(err, ErrQuarantined) {
			t.Fatalf("breaker fired while disabled (request %d)", i)
		}
	}
	if m := s.Metrics(); m.Quarantines != 0 || m.QuarantineRejections != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestEscalationFalseConvergenceClassified: an exactly singular Neumann
// Laplacian at a loose tolerance is the false-convergence poison — the
// CG recurrence residual passes the tolerance while the true residual
// is ~55. The service must surface a classified ErrDiverged (feeding
// the ladder and the breaker), never a "converged" garbage iterate.
func TestEscalationFalseConvergenceClassified(t *testing.T) {
	g := gen.Laplace2D(16, 16)
	a := gen.Laplacian(g, 0)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	cfg := Config{
		AMG:                 amg.Options{MinCoarseSize: 40},
		Tol:                 1e-8,
		MaxIter:             500,
		MaxEscalations:      -1,
		QuarantineThreshold: 2,
		QuarantineCooldown:  time.Minute,
	}
	s := New(cfg)
	for i := 0; i < 2; i++ {
		_, st, err := s.Solve(context.Background(), a, b)
		if !errors.Is(err, krylov.ErrDiverged) {
			t.Fatalf("solve %d: want ErrDiverged (false convergence), got %v", i, err)
		}
		if st.Converged {
			t.Fatalf("solve %d: false convergence marked converged, relres %g", i, st.RelResidual)
		}
	}
	if _, _, err := s.Solve(context.Background(), a, b); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("want the false-convergence pattern quarantined, got %v", err)
	}
	if m := s.Metrics(); m.NumericalFailures != 2 || m.Quarantines != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}
