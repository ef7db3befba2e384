// Package serve turns the solver stack into a concurrent solve service:
// many goroutines (request handlers, simulation time steppers, API clients)
// submit "matrix values + right-hand side(s)" requests and the service
// amortizes the expensive parts across them.
//
// Three observations drive the design, following the paper's argument
// that MIS-2-based setup is cheap enough to re-run freely:
//
//   - Traffic repeats sparsity patterns. Each distinct pattern is keyed
//     by hash.PatternFingerprint into an LRU cache of AMG hierarchies:
//     the first request for a pattern pays the full symbolic+numeric
//     build, a request with the same pattern but new values pays only
//     the numeric Refresh (plan replays), and a request whose values are
//     bitwise identical to the cached operator pays nothing.
//   - Traffic repeats operators. Requests that arrive within a small
//     batching window against the same operator (same pattern and
//     values) are coalesced into one krylov.CGBatchCtx call, so one SpMM
//     traversal of the matrix per iteration serves every coalesced
//     right-hand side.
//   - Solver state is mutable. Hierarchies, workspaces, and level
//     scratch are single-caller by contract, so the service single-
//     flights all work per cache entry behind a mutex: concurrent
//     requests against different patterns run fully in parallel, while
//     requests against one pattern serialize their setup and share
//     batched solves.
//
// A Service is safe for concurrent use by any number of goroutines. A
// bounded admission semaphore (Config.MaxInFlight) provides backpressure:
// excess requests wait (or fail when their context is canceled) instead
// of piling unbounded work onto the solver. Per-request RequestStats and
// service-wide Metrics expose what each request paid.
//
// Failure domains: the request context is honored past admission — it
// cancels hierarchy construction between levels and the CG iteration
// loop itself (a coalesced batch is only canceled once every participant
// has canceled; a canceled follower detaches immediately, since the
// batch owns copies of its columns). A cancellation never corrupts the
// cache: the entry stays valid and later requests reuse it. Panics in
// the build/refresh/solve critical sections are contained — converted to
// an error for every waiter of the affected entry, which is invalidated
// and dropped so the next request rebuilds fresh — instead of killing
// the process or stranding followers on the condition variable.
//
// Determinism carries over from the underlying stack: a served solution
// is bitwise identical to the same system solved by a sequential single
// caller (krylov.CGBatchCtx with k = 1, the same call as krylov.CGCtx,
// on a freshly built hierarchy, multiplying by its FineOperator), for
// any worker count, any cache state, and any coalescing — columns of a
// batched CG recurrence are exactly independent, and Hierarchy.Refresh
// is bitwise identical to a fresh build.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/hash"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// Config configures a Service. Zero values select the defaults noted on
// each field.
type Config struct {
	// AMG configures the hierarchies built for cached patterns. Its
	// Threads is also the worker count of the outer Krylov kernels (0 =
	// GOMAXPROCS). The outer CG multiplies by the hierarchy's own
	// finest-level operator (Hierarchy.FineOperator). Results are
	// deterministic for every worker count.
	AMG amg.Options
	// Tol is the relative-residual tolerance of served solves
	// (default 1e-8).
	Tol float64
	// MaxIter caps CG iterations per solve (default 500).
	MaxIter int
	// CacheCapacity bounds the number of cached hierarchies, one slot per
	// distinct sparsity pattern; the least recently used pattern is
	// evicted beyond it (default 8, minimum 1).
	CacheCapacity int
	// BatchWindow is how long the first request against an operator
	// waits for same-operator requests to coalesce with before solving
	// (default 200µs; negative disables coalescing).
	BatchWindow time.Duration
	// MaxBatch caps the right-hand sides in one CGBatchCtx call — both how
	// many requests coalesce and how many columns a single SolveBatch
	// request may carry, which also bounds the per-entry solver scratch
	// the cache retains (default 8; 1 disables coalescing).
	MaxBatch int
	// MaxInFlight bounds admitted in-flight requests for backpressure
	// (default 4×GOMAXPROCS).
	MaxInFlight int
	// SolveTimeout, when positive, bounds each request end to end —
	// admission wait, setup, coalescing, and the solve itself — by
	// composing a deadline onto the caller's context. An expired
	// deadline surfaces as a cancellation wrapping
	// context.DeadlineExceeded (transports map it to 504). Zero (the
	// default) imposes no service-side deadline.
	SolveTimeout time.Duration
	// Health configures the per-iteration solver health guard applied
	// to every served solve: non-finite residuals, divergence, and
	// stagnation abort the iteration with a classified error instead of
	// burning the MaxIter budget. nil selects krylov.DefaultHealth().
	// The guard reads only residual norms the iteration already
	// computed, so healthy solves are bitwise unchanged.
	Health *krylov.Health
	// MaxEscalations caps the escalation ladder: after a classified
	// numerical failure (diverged, stagnated, broken down, or MaxIter
	// exhausted — not non-finite inputs, which no strategy fixes) the
	// request is retried with up to this many progressively stronger
	// request-local configurations, in a deterministic sequence: a
	// point-SGS smoother (skipped when the service already runs one),
	// then a GMRES outer solve. Each rung attempted is recorded in
	// RequestStats.Escalations. 0 selects the default of 2 (the full
	// ladder); negative disables escalation.
	MaxEscalations int
	// QuarantineThreshold is the number of consecutive classified
	// numerical failures on one pattern fingerprint after which the
	// pattern is quarantined: further requests fail fast with
	// ErrQuarantined (no build or solve cost) until a cooldown expires,
	// then a single half-open probe request is let through — success
	// closes the breaker, failure re-quarantines with a doubled
	// cooldown (capped at 64× the base). 0 selects the default of 3;
	// negative disables the breaker.
	QuarantineThreshold int
	// QuarantineCooldown is the base quarantine duration before the
	// first half-open probe (default 1s).
	QuarantineCooldown time.Duration
	// FaultHook, when non-nil, is called at the named phase of each
	// request with that request's context, and a non-nil return fails
	// the phase as if the work itself had failed. It exists for
	// deterministic fault injection in tests: the hook may return an
	// error (injected build/refresh/solve failure), sleep (slow solve),
	// cancel the request's own context (per-request cancellation at a
	// chosen phase, via a cancel func carried in context values), or
	// panic — but only at FaultBuild, FaultRefresh, and FaultSolve,
	// which run inside the service's panic-isolation sections.
	// Production configurations leave it nil.
	FaultHook func(FaultPhase, context.Context) error
}

// defaultBatchWindow is the coalescing window when Config leaves it zero:
// long enough to catch a concurrent burst against one operator, short
// enough to be invisible next to a multigrid solve.
const defaultBatchWindow = 200 * time.Microsecond

func (c Config) withDefaults() Config {
	if c.Tol <= 0 {
		c.Tol = 1e-8
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 500
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 8
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = defaultBatchWindow
	} else if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Health == nil {
		c.Health = krylov.DefaultHealth()
	}
	if c.MaxEscalations == 0 {
		c.MaxEscalations = 2
	} else if c.MaxEscalations < 0 {
		c.MaxEscalations = 0
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	if c.QuarantineCooldown <= 0 {
		c.QuarantineCooldown = time.Second
	}
	return c
}

// Outcome reports what a request paid at the hierarchy cache.
type Outcome int

const (
	// OutcomeBuild: first request for the pattern; paid the full
	// symbolic + numeric hierarchy construction.
	OutcomeBuild Outcome = iota
	// OutcomeRefresh: cached pattern, new values; paid the numeric
	// Refresh (plan replays) only.
	OutcomeRefresh
	// OutcomeReuse: cached pattern with bitwise-identical values; paid
	// nothing beyond the solve.
	OutcomeReuse
	// OutcomeCollision: the pattern fingerprint matched a cached entry
	// of a different shape (a hash collision); the request was served
	// correctly but uncached.
	OutcomeCollision
)

// String names the outcome for logs and metrics.
func (o Outcome) String() string {
	switch o {
	case OutcomeBuild:
		return "build"
	case OutcomeRefresh:
		return "refresh"
	case OutcomeReuse:
		return "reuse"
	case OutcomeCollision:
		return "collision"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// ErrBadRequest is wrapped by every request-shaped rejection (malformed
// matrix, wrong right-hand-side lengths, oversized batch), so transports
// can distinguish caller errors from solver failures with errors.Is.
var ErrBadRequest = errors.New("serve: bad request")

// ErrPanic is wrapped by every error produced by a contained panic in a
// build/refresh/solve critical section. The affected cache entry is
// invalidated and dropped; the panicking request and every coalesced
// follower get this error instead of a deadlock or a dead process.
var ErrPanic = errors.New("serve: panic in solver critical section")

// ErrInvalidated is returned to a batch whose cache entry was reset (by
// a contained panic or a deep refresh failure in another request) while
// the batch was parked in its coalescing window: the values the batch
// was pinned to are gone, so solving would run against a different
// operator. Retrying the request rebuilds fresh and succeeds.
var ErrInvalidated = errors.New("serve: cache entry invalidated while batch was coalescing")

// isCancellation reports whether err is any of the stack's cancellation
// outcomes (solver-loop, setup, admission, or coalescing-window cancel
// — all of them wrap the originating context error).
func isCancellation(err error) bool {
	return errors.Is(err, krylov.ErrCanceled) || errors.Is(err, amg.ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RequestStats reports what one request paid and how its solve went.
type RequestStats struct {
	// Outcome is the hierarchy-cache outcome.
	Outcome Outcome
	// Batched is the total number of right-hand-side columns in the
	// CGBatchCtx call that served this request (1 when the request ran
	// alone).
	Batched int
	// Columns holds the solver stats of this request's right-hand
	// sides, in request order.
	Columns []krylov.Stats
	// Converged reports that every requested column met the tolerance —
	// the explicit signal that a result is an answer, not a best-effort
	// iterate (an exhausted MaxIter additionally returns a classified
	// error wrapping krylov.ErrNotConverged).
	Converged bool
	// RelResidual is the worst (largest) final relative residual across
	// the requested columns (0 when the request failed before any
	// column was solved).
	RelResidual float64
	// Escalations names the escalation-ladder rungs attempted for this
	// request, in order (nil when the first solve was healthy). When the
	// request ultimately succeeded, the last rung named is the one that
	// recovered it.
	Escalations []string
}

// finalize derives the request-level convergence summary from the
// per-column stats.
func (st *RequestStats) finalize() {
	st.Converged = len(st.Columns) > 0
	st.RelResidual = 0
	for _, cs := range st.Columns {
		if !cs.Converged {
			st.Converged = false
		}
		if cs.RelResidual > st.RelResidual {
			st.RelResidual = cs.RelResidual
		}
	}
}

// Service is a concurrent solve service. Create one with New; the zero
// value is not usable. All methods are safe for concurrent use.
type Service struct {
	cfg Config
	rt  *par.Runtime
	// solveOpt carries Config's Tol, MaxIter and Health; each solve
	// adds its own preconditioner and workspace.
	solveOpt krylov.Options
	// sem is the admission semaphore bounding in-flight requests.
	sem chan struct{}

	// mu guards the cache index (entries + lru). It is never held
	// across a build, refresh, or solve — those serialize on the
	// per-entry lock — so cache lookups stay fast under load.
	mu      sync.Mutex
	entries map[uint64]*entry
	lru     *list.List // front = most recently used; values are *entry

	// rungs is the precomputed escalation ladder (see Config.
	// MaxEscalations); br is the per-pattern circuit breaker (nil when
	// Config.QuarantineThreshold is negative).
	rungs []rung
	br    *breaker

	m counters
}

// entry is one cached pattern: the hierarchy (whose FineOperator is the
// outer CG operator), the service-owned fine matrix (current numeric
// values), solver scratch, and the coalescing state. key/rows/cols/nnz
// are immutable; elem belongs to the index (guarded by Service.mu, like
// the map and list it lives in); every other field is guarded by mu.
// Holding mu across the solve is what makes hierarchies and workspaces
// — single-caller by contract — race-clean under concurrent requests.
type entry struct {
	key             uint64
	rows, cols, nnz int

	mu   sync.Mutex
	cond *sync.Cond // signaled when pending drops to zero
	h    *amg.Hierarchy
	// fine holds the values the hierarchy's numeric state was built
	// from; spare is the ping-pong buffer a Refresh runs against, so a
	// rejected Refresh never clobbers fine (they share the immutable
	// pattern arrays and differ only in Val).
	fine, spare *sparse.Matrix
	// pending counts batches created but not yet solved; values may not
	// change while any batch is in flight.
	pending int
	// refreshWaiters counts requests parked on cond until pending
	// drains so they can refresh the values. While any are queued, new
	// batch leaders skip the coalescing window (they solve while
	// holding mu, so pending can never stay positive across an unlock)
	// — the fairness gate that keeps a new-values request from being
	// starved by a stream of current-values batches.
	refreshWaiters int
	// cur is the open batch accepting joiners (nil when none).
	cur *batch
	// Solver scratch, reused across this entry's solves (safe: the
	// entry lock is held for the duration of every solve).
	ws         *krylov.Workspace
	bbuf, xbuf []float64

	elem *list.Element
}

// batch is one coalesced CGBatchCtx call: the columns of every joined
// request, solved together, results fanned back out. The batch owns
// copies of every joined column (made at join time, under the entry
// lock): a follower whose context is canceled can then detach and
// return immediately without the leader ever reading caller-owned
// memory that the caller has taken back.
type batch struct {
	bs    [][]float64 // batch-owned copies of the columns, join order
	xs    [][]float64 // per-column results, filled by the leader
	stats []krylov.Stats
	err   error
	k     int
	done  chan struct{} // closed by the leader after the solve
	// full is closed by the joiner that brings the batch to MaxBatch,
	// waking the leader early instead of sleeping out the rest of the
	// window (no later joiner can fit, so at most one close).
	full chan struct{}
	// live counts participants whose request context has not been
	// canceled; when the last one cancels, the solve itself is canceled
	// through solveCtx — one canceled client never aborts a batch that
	// other clients are still waiting on.
	live        atomic.Int64
	solveCtx    context.Context
	cancelSolve context.CancelCauseFunc
}

func newBatch() *batch {
	bt := &batch{done: make(chan struct{}), full: make(chan struct{})}
	bt.solveCtx, bt.cancelSolve = context.WithCancelCause(context.Background())
	return bt
}

// join appends batch-owned copies of the request's columns and their
// result buffers. Called with the entry lock held.
func (bt *batch) join(bs [][]float64, n int) {
	for _, b := range bs {
		bt.bs = append(bt.bs, append(make([]float64, 0, n), b...))
		bt.xs = append(bt.xs, make([]float64, n))
	}
}

// watch registers one participant's context with the batch's liveness
// count. The returned stop function releases the registration on the
// normal path; it must not be forgotten (the AfterFunc would outlive
// the request). The cancellation callback runs on the context's
// machinery, never holding the entry lock — the leader holds that lock
// for the whole solve, so a callback that took it would deadlock the
// very cancellation it delivers.
func (bt *batch) watch(ctx context.Context) (stop func() bool) {
	bt.live.Add(1)
	return context.AfterFunc(ctx, func() {
		if bt.live.Add(-1) == 0 {
			bt.cancelSolve(context.Cause(ctx))
		}
	})
}

// reset returns the entry to the unbuilt state (must hold e.mu): the
// next request to observe it — queued on the mutex or resuming from the
// condition wait — rebuilds from its own matrix.
func (e *entry) reset() {
	e.h, e.fine, e.spare = nil, nil, nil
}

// New returns a Service with the given configuration (zero fields take
// the documented defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		rt:       par.New(cfg.AMG.Threads),
		solveOpt: krylov.Options{Tol: cfg.Tol, MaxIter: cfg.MaxIter, Health: cfg.Health},
		sem:      make(chan struct{}, cfg.MaxInFlight),
		entries:  make(map[uint64]*entry),
		lru:      list.New(),
	}
	s.rungs = buildLadder(cfg)
	if cfg.QuarantineThreshold > 0 {
		s.br = newBreaker(cfg.QuarantineThreshold, cfg.QuarantineCooldown)
	}
	return s
}

// Solve serves one system A x = b: admission (backpressure), hierarchy
// cache lookup by pattern fingerprint, build/refresh/reuse of the
// numeric state, and a possibly coalesced CG solve. The returned x is
// freshly allocated. ctx is honored end to end: it bounds admission,
// cancels hierarchy construction between levels, detaches the request
// from a coalescing window it is parked in, and stops the CG iteration
// loop itself once every participant of the batch has canceled. A
// canceled request returns an error wrapping the context's cause and
// never a partial solution; the cache entry it touched stays valid for
// later requests.
//
// a and b are only read, and never retained past the call: the service
// keeps its own copies of the matrix and right-hand side, so the caller
// may mutate or reuse both freely after Solve returns — even when the
// request was canceled out of a shared batch.
func (s *Service) Solve(ctx context.Context, a *sparse.Matrix, b []float64) ([]float64, RequestStats, error) {
	xs, st, err := s.SolveBatch(ctx, a, [][]float64{b})
	if len(xs) == 0 {
		return nil, st, err
	}
	return xs[0], st, err
}

// SolveBatch is Solve for a request carrying several right-hand sides
// against one matrix; the columns stay together through coalescing and
// are solved in one CGBatchCtx call. Stats carries one krylov.Stats per
// column. When some columns fail to converge the error is non-nil but
// every solution and per-column stat is still returned.
func (s *Service) SolveBatch(ctx context.Context, a *sparse.Matrix, bs [][]float64) ([][]float64, RequestStats, error) {
	var st RequestStats
	if ctx == nil {
		ctx = context.Background()
	}
	if a == nil || a.Rows != a.Cols {
		return nil, st, fmt.Errorf("%w: matrix must be square", ErrBadRequest)
	}
	if len(bs) == 0 {
		return nil, st, fmt.Errorf("%w: request carries no right-hand side", ErrBadRequest)
	}
	if len(bs) > s.cfg.MaxBatch {
		// The batch width bound applies to a single request's own
		// columns too: it is what keeps the per-entry solver scratch
		// (≈6·n·k floats inside the workspace) bounded, so one
		// oversized request cannot pin gigabytes in a cache entry.
		return nil, st, fmt.Errorf("%w: request carries %d right-hand sides, service accepts at most %d per request (Config.MaxBatch)", ErrBadRequest, len(bs), s.cfg.MaxBatch)
	}
	for j, b := range bs {
		if len(b) != a.Rows {
			return nil, st, fmt.Errorf("%w: right-hand side %d has %d entries, matrix has %d rows", ErrBadRequest, j, len(b), a.Rows)
		}
	}
	// Reject structurally invalid CSR before admission: the cached paths
	// index the request's arrays inside the per-entry critical section,
	// and a panic there would wedge the pattern for every later request.
	// The build path re-validates inside BuildSymbolic; this moves the
	// failure to the API boundary for every path.
	if err := a.Validate(); err != nil {
		return nil, st, fmt.Errorf("%w: invalid matrix: %w", ErrBadRequest, err)
	}

	// Per-request deadline: composed onto the caller's context so it
	// bounds admission wait, setup, coalescing, and the solve alike. An
	// expired deadline surfaces through the normal cancellation paths,
	// wrapping context.DeadlineExceeded.
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}

	// Backpressure: block until an in-flight slot frees up, or fail
	// with the caller's context.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.m.rejected.Add(1)
		return nil, st, fmt.Errorf("serve: admission: %w", ctx.Err())
	}
	defer func() { <-s.sem }()
	s.m.requests.Add(1)
	if err := s.fault(FaultAdmitted, ctx); err != nil {
		return nil, st, err
	}

	// Circuit breaker: a quarantined pattern fails fast here, paying
	// neither build nor solve; the first request past the cooldown
	// becomes the half-open probe.
	key := hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col)
	probe := false
	if s.br != nil {
		var qerr error
		probe, qerr = s.br.admit(key)
		if qerr != nil {
			s.m.quarantineRejections.Add(1)
			return nil, st, qerr
		}
		if probe {
			s.m.probes.Add(1)
		}
	}

	var xs [][]float64
	var rst RequestStats
	var err error
	if e, collision := s.lookup(key, a); collision {
		xs, rst, err = s.solveUncached(ctx, a, bs, &st)
	} else {
		xs, rst, err = s.solveCached(ctx, e, a, bs, &st)
	}
	if err != nil && s.escalatable(err) {
		xs, err = s.escalate(ctx, a, bs, &rst, xs, err)
	}
	rst.finalize()
	if s.br != nil {
		switch {
		case err == nil:
			s.br.recordSuccess(key, probe, &s.m)
		case isNumericalFailure(err):
			s.br.recordFailure(key, probe, &s.m)
		default:
			s.br.recordNeutral(key, probe)
		}
	}
	if err != nil {
		if isCancellation(err) {
			s.m.canceled.Add(1)
		} else if isNumericalFailure(err) {
			s.m.numericalFailures.Add(1)
		}
	}
	return xs, rst, err
}

// fault runs the configured fault-injection hook for the phase, if any.
func (s *Service) fault(p FaultPhase, ctx context.Context) error {
	if s.cfg.FaultHook == nil {
		return nil
	}
	return s.cfg.FaultHook(p, ctx)
}

// lookup returns the cache entry for key, creating (and LRU-evicting)
// as needed under the index lock. collision reports that the key is
// cached for a different matrix shape — a fingerprint collision — in
// which case no entry is returned and the request must bypass the cache.
func (s *Service) lookup(key uint64, a *sparse.Matrix) (e *entry, collision bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		// Shape pre-check on hit: two patterns hashing to one
		// fingerprint must not share a hierarchy. This catches
		// different-shape collisions without touching the entry lock;
		// equal-shape collisions are caught by the exact pattern
		// comparison in solveCached (silently corrupting results is the
		// one thing a collision must never do).
		if e.rows != a.Rows || e.cols != a.Cols || e.nnz != a.NNZ() {
			s.m.collisions.Add(1)
			return nil, true
		}
		s.lru.MoveToFront(e.elem)
		return e, false
	}
	e = &entry{key: key, rows: a.Rows, cols: a.Cols, nnz: a.NNZ()}
	e.cond = sync.NewCond(&e.mu)
	s.index(e)
	return e, false
}

// index inserts an entry at the LRU front and evicts past capacity.
// Called with s.mu held, for a key not currently indexed.
func (s *Service) index(e *entry) {
	e.elem = s.lru.PushFront(e)
	s.entries[e.key] = e
	for s.lru.Len() > s.cfg.CacheCapacity {
		old := s.lru.Remove(s.lru.Back()).(*entry)
		delete(s.entries, old.key)
		s.m.evictions.Add(1)
	}
}

// drop removes an entry from the cache if it is still indexed (an
// entry whose build failed, or whose numeric state a deep Refresh
// failure left unusable). In-flight holders of the entry keep working;
// the next request for the pattern rebuilds fresh. Lock order: drop
// takes the index lock (s.mu) and is called after releasing the entry
// lock, never while holding s.mu.
func (s *Service) drop(e *entry) {
	s.mu.Lock()
	if cur, ok := s.entries[e.key]; ok && cur == e {
		delete(s.entries, e.key)
		s.lru.Remove(e.elem)
	}
	s.mu.Unlock()
}

// solveCached runs the cached-pattern path: ensure the hierarchy's
// numeric state matches the request's values (build, refresh, or
// nothing), then solve through the entry's batcher.
func (s *Service) solveCached(ctx context.Context, e *entry, a *sparse.Matrix, bs [][]float64, st *RequestStats) ([][]float64, RequestStats, error) {
	e.mu.Lock()
	for {
		if err := ctx.Err(); err != nil {
			// Honor cancellation before committing to any setup work.
			// Nothing has been mutated: the entry stays exactly as the
			// previous request left it.
			e.mu.Unlock()
			return nil, *st, fmt.Errorf("serve: canceled before solve: %w", context.Cause(ctx))
		}
		if e.h == nil {
			if e.pending > 0 {
				// The entry was reset (contained panic, deep refresh
				// failure) while batches pinned to the old values are
				// still in flight. Their leaders must observe the reset
				// and fail before this request installs new values under
				// them — wait for the drain exactly like a refresher.
				e.refreshWaiters++
				e.cond.Wait()
				e.refreshWaiters--
				continue
			}
			// First request for the pattern — or the first to observe an
			// entry reset by a failed build or deep refresh failure,
			// including waiters resuming from cond.Wait below: pay the
			// full construction. Waiters for the same pattern block on
			// e.mu here — the single-flight guarantee that K concurrent
			// first-requests build exactly once.
			if err := s.buildEntry(ctx, e, a); err != nil {
				if errors.Is(err, ErrPanic) {
					s.m.panics.Add(1)
				}
				e.mu.Unlock()
				s.drop(e)
				return nil, *st, fmt.Errorf("serve: hierarchy build: %w", err)
			}
			st.Outcome = OutcomeBuild
			s.m.builds.Add(1)
			break
		}
		if !samePattern(e.fine, a) {
			// Equal-shape fingerprint collision: the request's pattern
			// hashes to this entry's key and matches its dimensions and
			// entry count, but is a different pattern. Refreshing would
			// scatter the request's values onto the cached pattern and
			// silently solve the wrong matrix, so serve it uncached.
			e.mu.Unlock()
			s.m.collisions.Add(1)
			return s.solveUncached(ctx, a, bs, st)
		}
		if sameValues(e.fine.Val, a.Val) {
			// Same operator as the cached numeric state: pay nothing.
			st.Outcome = OutcomeReuse
			s.m.valueHits.Add(1)
			break
		}
		if e.pending > 0 {
			// In-flight batches are pinned to the current values; wait
			// for them to drain before refreshing under them. The
			// waiter count suppresses new coalescing windows, so the
			// drain is bounded by the batches already open. Everything
			// is re-checked on wake: the entry may have been reset (or
			// refreshed to these exact values) meanwhile.
			e.refreshWaiters++
			e.cond.Wait()
			e.refreshWaiters--
			continue
		}
		if err := s.refreshEntry(ctx, e, a); err != nil {
			panicked := errors.Is(err, ErrPanic)
			if panicked {
				s.m.panics.Add(1)
			}
			if panicked || !e.h.Valid() {
				// The numeric state is no longer trustworthy. Reset the
				// entry while still holding its lock — same-pattern
				// waiters queued on e.mu or e.cond must find the unbuilt
				// state and rebuild, never an invalidated hierarchy (whose
				// Precondition panics) — and retire it from the index so
				// the next lookup starts fresh.
				e.reset()
				e.cond.Broadcast()
				e.mu.Unlock()
				s.drop(e)
			} else {
				// Pre-mutation rejection (bad values, cancellation
				// caught before the replay touched anything): the
				// previous numeric state is fully usable, keep it.
				e.mu.Unlock()
			}
			return nil, *st, fmt.Errorf("serve: hierarchy refresh: %w", err)
		}
		st.Outcome = OutcomeRefresh
		s.m.refreshes.Add(1)
		break
	}
	return s.solveBatched(ctx, e, bs, st)
}

// buildEntry runs the full-construction critical section with panic
// isolation: hierarchy build, ping-pong value buffers, and solver
// scratch. Called with e.mu held. Every entry field is assigned only
// after the last fallible step, so a failure (or contained panic,
// reported as an error wrapping ErrPanic) leaves the entry unbuilt and
// the caller drops it.
func (s *Service) buildEntry(ctx context.Context, e *entry, a *sparse.Matrix) (err error) {
	defer recoverTo(&err)
	if err := s.fault(FaultBuild, ctx); err != nil {
		return err
	}
	fine := a.Clone()
	h, err := amg.BuildCtx(ctx, fine, s.cfg.AMG)
	if err != nil {
		return err
	}
	e.h = h
	e.fine = fine
	e.spare = &sparse.Matrix{
		Rows: fine.Rows, Cols: fine.Cols,
		RowPtr: fine.RowPtr, Col: fine.Col, // pattern arrays are immutable and shared
		Val: make([]float64, len(fine.Val)),
	}
	e.ws = krylov.NewWorkspace(fine.Rows)
	return nil
}

// refreshEntry runs the numeric-refresh critical section with panic
// isolation. Called with e.mu held and e.pending == 0. On return the
// caller classifies the error: pre-mutation rejections (including a
// cancellation caught before the replay) leave the entry usable;
// ErrPanic or an invalidated hierarchy mean the entry must be reset and
// dropped.
func (s *Service) refreshEntry(ctx context.Context, e *entry, a *sparse.Matrix) (err error) {
	defer recoverTo(&err)
	if err := s.fault(FaultRefresh, ctx); err != nil {
		return err
	}
	copy(e.spare.Val, a.Val)
	// BuildNumeric, not Refresh: the service has no "same operator
	// evolving over time" contract — independent clients may submit
	// any values on a pattern — so the history-dependent diagonal
	// sign check would make the outcome depend on invisible cache
	// state (rejected while cached, fully built after an eviction).
	// Both run the identical numeric replay at identical cost.
	if err := e.h.BuildNumericCtx(ctx, e.spare); err != nil {
		return err
	}
	e.fine, e.spare = e.spare, e.fine
	return nil
}

// recoverTo converts a panic in a solver critical section into an error
// wrapping ErrPanic, with the panic value and stack preserved.
func recoverTo(errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("%w: %v\n%s", ErrPanic, r, debug.Stack())
	}
}

// solveBatched joins or leads a coalesced batch for the entry's current
// operator. Called with e.mu held; returns with it released.
func (s *Service) solveBatched(ctx context.Context, e *entry, bs [][]float64, st *RequestStats) ([][]float64, RequestStats, error) {
	m := len(bs)
	// Join the open batch when the request's columns fit.
	if e.cur != nil && len(e.cur.bs)+m <= s.cfg.MaxBatch {
		bt := e.cur
		lo := len(bt.bs)
		bt.join(bs, e.rows)
		if len(bt.bs) == s.cfg.MaxBatch {
			close(bt.full) // batch is full; stop the leader's window early
		}
		e.mu.Unlock()
		stop := bt.watch(ctx)
		select {
		case <-bt.done:
			stop()
			return s.requestResult(bt, lo, m, st)
		case <-ctx.Done():
			// Detach: the batch owns copies of this request's columns,
			// so the leader finishes without it and nothing is corrupted.
			// The AfterFunc already decremented the liveness count.
			return nil, *st, fmt.Errorf("serve: canceled while coalescing: %w", context.Cause(ctx))
		}
	}

	// Lead a new batch: publish it for joiners, sleep out the window
	// (or until a joiner fills the batch), close it, and solve while
	// holding the entry lock. A canceled leader with live followers
	// still runs the solve on their behalf (it is the only goroutine
	// positioned to); only its own result comes back canceled.
	bt := newBatch()
	bt.join(bs, e.rows)
	stop := bt.watch(ctx)
	e.pending++
	if s.cfg.BatchWindow > 0 && s.cfg.MaxBatch > m && e.refreshWaiters == 0 {
		e.cur = bt
		e.mu.Unlock()
		timer := time.NewTimer(s.cfg.BatchWindow)
		select {
		case <-timer.C:
		case <-bt.full:
			timer.Stop()
		}
		e.mu.Lock()
		if e.cur == bt {
			e.cur = nil
		}
	}

	bt.k = len(bt.bs)
	if e.h == nil {
		// The entry was reset (contained panic, deep refresh failure in
		// another request) while this batch coalesced. Its columns are
		// pinned to values that no longer exist — solving against
		// whatever gets rebuilt would silently answer a different
		// system, so fail the whole batch cleanly instead.
		bt.err = ErrInvalidated
	} else {
		s.runBatchSolve(ctx, e, bt)
	}
	e.pending--
	if e.pending == 0 {
		e.cond.Broadcast()
	}
	panicked := errors.Is(bt.err, ErrPanic)
	if panicked {
		// The panic may have struck mid-update inside the hierarchy or
		// workspace: nothing about the entry's solver state can be
		// trusted anymore. Reset it (waiters rebuild) and retire it.
		s.m.panics.Add(1)
		e.reset()
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	if panicked {
		s.drop(e)
	}
	close(bt.done)
	bt.cancelSolve(nil) // release the solve context's resources
	stop()
	return s.requestResult(bt, 0, m, st)
}

// runBatchSolve executes the batch's CGBatchCtx call with panic isolation;
// called with e.mu held. reqCtx is the leader's request context (the
// fault hook reads injection plans from it); the solve itself is
// governed by bt.solveCtx, which cancels only once every live
// participant of the batch has canceled.
func (s *Service) runBatchSolve(reqCtx context.Context, e *entry, bt *batch) {
	defer recoverTo(&bt.err)
	if err := s.fault(FaultSolve, reqCtx); err != nil {
		bt.err = err
		return
	}
	k := bt.k
	n := e.rows
	e.bbuf = grow(e.bbuf, n*k)
	e.xbuf = grow(e.xbuf, n*k)
	interleave(e.bbuf, bt.bs, n, k)
	clear(e.xbuf[:n*k]) // zero initial guess for every column
	o := s.solveOpt
	o.M, o.Work = e.h, e.ws
	stats, err := krylov.CGBatchCtx(bt.solveCtx, s.rt, e.h.FineOperator(), e.bbuf, e.xbuf, k, o)
	bt.err = err
	bt.stats = make([]krylov.Stats, len(stats))
	copy(bt.stats, stats) // stats slice is workspace-owned; keep a copy
	deinterleave(bt.xs, e.xbuf, n, k)
	s.m.batchSolves.Add(1)
	s.m.batchedRHS.Add(int64(k))
}

// requestResult extracts one request's columns [lo, lo+m) from a solved
// batch: solutions, per-column stats, and an error iff one of the
// request's own columns failed (a neighbor's failure in the same batch
// is not this request's error). Canceled, panicked, and invalidated
// batches return no solutions at all — a partial CG iterate must never
// be mistaken for an answer.
func (s *Service) requestResult(bt *batch, lo, m int, st *RequestStats) ([][]float64, RequestStats, error) {
	st.Batched = bt.k
	if bt.err != nil {
		switch {
		case errors.Is(bt.err, krylov.ErrCanceled):
			return nil, *st, fmt.Errorf("serve: solve canceled: %w", bt.err)
		case errors.Is(bt.err, ErrPanic), errors.Is(bt.err, ErrInvalidated):
			return nil, *st, fmt.Errorf("serve: %w", bt.err)
		}
	}
	xs := bt.xs[lo : lo+m]
	var err error
	if len(bt.stats) == bt.k {
		st.Columns = append(st.Columns, bt.stats[lo:lo+m]...)
		failed := 0
		for _, cs := range st.Columns {
			if !cs.Converged {
				failed++
			}
		}
		if failed > 0 {
			// Request-scoped error: the batch-wide message counts other
			// callers' columns, which is not this request's diagnostics
			// (the underlying error stays wrapped for errors.Is).
			err = fmt.Errorf("serve: %d of %d requested right-hand side(s) did not converge: %w", failed, m, bt.err)
		}
	} else {
		// The batch solve failed before producing per-column stats.
		err = fmt.Errorf("serve: %w", bt.err)
	}
	return xs, *st, err
}

// solveUncached serves a fingerprint-collision request correctly but
// without touching the cache: a fresh hierarchy and a one-shot solve
// through the same CGBatchCtx kernel, so even this path is bitwise
// identical to the cached one. The request context governs build and
// solve directly (no coalescing to negotiate with), and panic isolation
// applies here too — the state is request-local, but the process must
// survive.
func (s *Service) solveUncached(ctx context.Context, a *sparse.Matrix, bs [][]float64, st *RequestStats) (xs [][]float64, rst RequestStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Add(1)
			xs, rst, err = nil, *st, fmt.Errorf("serve: %w: %v\n%s", ErrPanic, r, debug.Stack())
		}
	}()
	st.Outcome = OutcomeCollision
	h, err := amg.BuildCtx(ctx, a, s.cfg.AMG)
	if err != nil {
		return nil, *st, fmt.Errorf("serve: hierarchy build: %w", err)
	}
	xs, stats, serr := s.solveFresh(ctx, a, h, bs)
	return s.requestResult(&batch{k: len(bs), xs: xs, stats: stats, err: serr}, 0, len(bs), st)
}

// solveFresh solves the columns bs on a request-local hierarchy h with
// one batch CG from a zero initial guess, through the same CGBatchCtx
// kernel and the same outer operator (h.FineOperator) as the cached
// path, and hence bitwise the same results.
func (s *Service) solveFresh(ctx context.Context, a *sparse.Matrix, h *amg.Hierarchy, bs [][]float64) ([][]float64, []krylov.Stats, error) {
	n, k := a.Rows, len(bs)
	bb := make([]float64, n*k)
	xb := make([]float64, n*k)
	interleave(bb, bs, n, k)
	o := s.solveOpt
	o.M = h
	stats, err := krylov.CGBatchCtx(ctx, s.rt, h.FineOperator(), bb, xb, k, o)
	xs := make([][]float64, k)
	for j := range xs {
		xs[j] = make([]float64, n)
	}
	deinterleave(xs, xb, n, k)
	return xs, stats, err
}

// interleave gathers k column vectors into the interleaved multi-RHS
// layout of sparse.SpMM: the k values of row i contiguous at
// [i*k : (i+1)*k].
func interleave(dst []float64, cols [][]float64, n, k int) {
	for j, col := range cols {
		for i := 0; i < n; i++ {
			dst[i*k+j] = col[i]
		}
	}
}

// deinterleave scatters an interleaved multi-RHS block back into the k
// column vectors — the exact inverse of interleave.
func deinterleave(cols [][]float64, src []float64, n, k int) {
	for j, col := range cols {
		for i := 0; i < n; i++ {
			col[i] = src[i*k+j]
		}
	}
}

// samePattern reports exact pattern equality of two same-shape matrices
// (the shape and entry count were already checked at lookup). An exact
// compare, not a second hash: this is the last line of defense against
// fingerprint collisions, and it costs no more than the value compare
// the hit path pays anyway.
func samePattern(x, y *sparse.Matrix) bool {
	for i, p := range x.RowPtr {
		if y.RowPtr[i] != p {
			return false
		}
	}
	for i, c := range x.Col {
		if y.Col[i] != c {
			return false
		}
	}
	return true
}

// sameValues reports bitwise equality of two value arrays. Bitwise (not
// ==) so that the "pay nothing" fast path never conflates values that
// would produce different operators (-0 vs 0 aside, a NaN never gets
// here: the build and refresh paths reject non-finite values).
func sameValues(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// grow returns s resized to length n, reusing capacity when possible.
func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}
