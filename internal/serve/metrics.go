package serve

import "sync/atomic"

// counters is the service's internal atomic counter set. Every field
// must be a sync/atomic value and every access must go through its
// atomic methods; the atomicfield analyzer enforces this.
//
//amg:atomic
type counters struct {
	requests    atomic.Int64
	rejected    atomic.Int64
	builds      atomic.Int64
	refreshes   atomic.Int64
	valueHits   atomic.Int64
	collisions  atomic.Int64
	evictions   atomic.Int64
	batchSolves atomic.Int64
	batchedRHS  atomic.Int64
	canceled    atomic.Int64
	panics      atomic.Int64

	numericalFailures    atomic.Int64
	escalations          atomic.Int64
	escalationRecoveries atomic.Int64
	quarantines          atomic.Int64
	quarantineRejections atomic.Int64
	probes               atomic.Int64
	probeSuccesses       atomic.Int64
	probeFailures        atomic.Int64
}

// Metrics is a consistent-enough snapshot of the service counters (each
// counter is read atomically; the set is not read under one lock, which
// monitoring does not need).
type Metrics struct {
	// Requests counts admitted requests; Rejected counts requests whose
	// context was canceled while waiting for admission (backpressure).
	Requests, Rejected int64
	// Builds, Refreshes, and ValueHits partition cache outcomes by what
	// the request paid: full construction, numeric-only replay, nothing.
	Builds, Refreshes, ValueHits int64
	// Collisions counts fingerprint collisions served uncached;
	// Evictions counts hierarchies dropped by LRU capacity pressure.
	Collisions, Evictions int64
	// BatchSolves counts solve calls, one per request that reached the
	// solver; BatchedRHS counts the columns those calls solved.
	BatchSolves, BatchedRHS int64
	// Canceled counts admitted requests that ended canceled (during
	// setup or the solve); admission-wait cancellations count under
	// Rejected instead.
	Canceled int64
	// Panics counts panics contained by the solver critical sections —
	// each one converted to an error and an entry retirement instead of
	// a dead process.
	Panics int64
	// NumericalFailures counts requests that ultimately failed with a
	// classified numerical error (after any escalation); Escalations
	// counts ladder rungs attempted and EscalationRecoveries the
	// requests a rung rescued.
	NumericalFailures, Escalations, EscalationRecoveries int64
	// Quarantines counts breaker openings (including re-openings after
	// a failed probe); QuarantineRejections counts requests failed fast
	// with ErrQuarantined. Probes counts half-open probe requests
	// admitted; ProbeSuccesses/ProbeFailures their verdicts (a probe
	// with no verdict — canceled, panicked — counts in neither).
	Quarantines, QuarantineRejections     int64
	Probes, ProbeSuccesses, ProbeFailures int64
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() Metrics {
	return Metrics{
		Requests:    s.m.requests.Load(),
		Rejected:    s.m.rejected.Load(),
		Builds:      s.m.builds.Load(),
		Refreshes:   s.m.refreshes.Load(),
		ValueHits:   s.m.valueHits.Load(),
		Collisions:  s.m.collisions.Load(),
		Evictions:   s.m.evictions.Load(),
		BatchSolves: s.m.batchSolves.Load(),
		BatchedRHS:  s.m.batchedRHS.Load(),
		Canceled:    s.m.canceled.Load(),
		Panics:      s.m.panics.Load(),

		NumericalFailures:    s.m.numericalFailures.Load(),
		Escalations:          s.m.escalations.Load(),
		EscalationRecoveries: s.m.escalationRecoveries.Load(),
		Quarantines:          s.m.quarantines.Load(),
		QuarantineRejections: s.m.quarantineRejections.Load(),
		Probes:               s.m.probes.Load(),
		ProbeSuccesses:       s.m.probeSuccesses.Load(),
		ProbeFailures:        s.m.probeFailures.Load(),
	}
}

// BatchedRHSRatio is the mean number of columns per solve call
// (BatchedRHS / BatchSolves): the mean width of the requests that
// reached the solver.
func (m Metrics) BatchedRHSRatio() float64 {
	if m.BatchSolves == 0 {
		return 0
	}
	return float64(m.BatchedRHS) / float64(m.BatchSolves)
}
