// Poison-pattern quarantine: a per-pattern circuit breaker in front of
// the solve paths. A pattern fingerprint that keeps producing classified
// numerical failures is quarantined — requests against it fail fast
// with ErrQuarantined, paying no build or solve cost — until a cooldown
// expires and a single half-open probe is let through: a successful
// probe closes the breaker, a failed one re-quarantines with a doubled
// cooldown (capped at 64× the base), the exponential-backoff discipline
// that keeps a persistently poisonous pattern from periodically
// stampeding the solver.
//
// The breaker state machine (per fingerprint):
//
//	closed ──(threshold consecutive numerical failures)──▶ open
//	open ──(cooldown expires; next request becomes the probe)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed (entry deleted)
//	half-open ──(probe fails numerically)──▶ open, cooldown ×2
//	half-open ──(probe canceled / panics: no verdict)──▶ open, immediate re-probe
//
// The breaker is keyed by pattern fingerprint — the same key as the
// hierarchy cache — but lives in its own map: quarantine state must
// survive LRU eviction of the cache entry (the poison pattern's entry
// is exactly the one that keeps failing to build), and a closed breaker
// carries no state at all (successes delete their entry, so the map
// holds only failing patterns, capped at breakerMaxEntries).
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrQuarantined is wrapped by requests rejected because their pattern
// fingerprint is quarantined after repeated numerical failures. The
// concrete error is a *QuarantinedError carrying the remaining
// cooldown, so transports can emit a Retry-After.
var ErrQuarantined = errors.New("serve: pattern quarantined")

// QuarantinedError is the concrete quarantine rejection: RetryAfter is
// the time until the breaker will admit a half-open probe. It unwraps
// to ErrQuarantined.
type QuarantinedError struct {
	RetryAfter time.Duration
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("serve: pattern quarantined after repeated numerical failures (retry in %v)", e.RetryAfter)
}

func (e *QuarantinedError) Unwrap() error { return ErrQuarantined }

const (
	// breakerMaxEntries caps the tracked (failing) fingerprints; beyond
	// it the entry closest to its probe time is evicted — the one
	// losing the least protection.
	breakerMaxEntries = 4096
	// breakerMaxBackoff caps the cooldown growth at base × this factor.
	breakerMaxBackoff = 64
)

// breakerEntry is one fingerprint's breaker state. probing marks a
// half-open probe in flight (it holds all other requests out until the
// probe reports).
type breakerEntry struct {
	fails    int
	open     bool
	probing  bool
	until    time.Time
	cooldown time.Duration
}

// breaker is the per-pattern circuit breaker. One short mutex hold per
// request on admit and one on record; never held across build or solve.
type breaker struct {
	mu        sync.Mutex
	threshold int
	base      time.Duration
	entries   map[uint64]*breakerEntry
}

func newBreaker(threshold int, base time.Duration) *breaker {
	return &breaker{threshold: threshold, base: base, entries: make(map[uint64]*breakerEntry)}
}

// admit gates one admitted request on its pattern's breaker state:
// closed (or untracked) patterns pass, quarantined patterns are
// rejected with the remaining cooldown, and the first request to
// arrive after the cooldown becomes the half-open probe (probe true) —
// concurrent requests stay rejected until the probe reports.
func (b *breaker) admit(fp uint64) (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[fp]
	if !ok || !e.open {
		return false, nil
	}
	now := time.Now()
	if now.Before(e.until) {
		return false, &QuarantinedError{RetryAfter: e.until.Sub(now)}
	}
	if e.probing {
		return false, &QuarantinedError{RetryAfter: e.cooldown}
	}
	e.probing = true
	return true, nil
}

// recordSuccess closes the fingerprint's breaker: consecutive-failure
// tracking and quarantine state are deleted outright, so healthy
// patterns cost the breaker nothing.
func (b *breaker) recordSuccess(fp uint64, probe bool, m *counters) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		m.probeSuccesses.Add(1)
	}
	delete(b.entries, fp)
}

// recordFailure counts one classified numerical failure: at threshold
// consecutive failures the pattern is quarantined for the base
// cooldown; a failed half-open probe re-quarantines immediately with a
// doubled cooldown.
func (b *breaker) recordFailure(fp uint64, probe bool, m *counters) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[fp]
	if !ok {
		b.prune()
		e = &breakerEntry{cooldown: b.base}
		b.entries[fp] = e
	}
	e.fails++
	now := time.Now()
	if probe {
		m.probeFailures.Add(1)
		e.probing = false
		if e.cooldown < b.base*breakerMaxBackoff {
			e.cooldown *= 2
		}
		e.open = true
		e.until = now.Add(e.cooldown)
		m.quarantines.Add(1)
		return
	}
	if !e.open && e.fails >= b.threshold {
		e.open = true
		e.cooldown = b.base
		e.until = now.Add(e.cooldown)
		m.quarantines.Add(1)
	}
}

// recordNeutral releases a probe that ended without a numerical verdict
// (canceled, contained panic): the breaker stays
// open but the next request may probe immediately — a cancellation says
// nothing about the pattern's health.
func (b *breaker) recordNeutral(fp uint64, probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[fp]; ok && e.probing {
		e.probing = false
		e.until = time.Now()
	}
}

// prune evicts the tracked entry with the earliest probe time when the
// map is at capacity. Called with b.mu held.
func (b *breaker) prune() {
	if len(b.entries) < breakerMaxEntries {
		return
	}
	var victim uint64
	var oldest time.Time
	first := true
	for k, e := range b.entries {
		if first || e.until.Before(oldest) {
			victim, oldest, first = k, e.until, false
		}
	}
	delete(b.entries, victim)
}
