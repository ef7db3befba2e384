// Package serve turns the solver stack into a concurrent solve service:
// many goroutines (request handlers, simulation time steppers, API clients)
// submit "matrix values + right-hand side(s)" requests and the service
// amortizes the expensive setup across them.
//
// Two observations drive the design, following the paper's argument
// that MIS-2-based setup is cheap enough to re-run freely:
//
//   - Traffic repeats sparsity patterns. Each distinct pattern is keyed
//     by hash.PatternFingerprint into an LRU cache of AMG hierarchies:
//     the first request for a pattern pays the full symbolic+numeric
//     build, a request with the same pattern but new values pays only
//     the numeric Refresh (plan replays), and a request whose values are
//     bitwise identical to the cached operator pays nothing.
//   - Solver state is mutable. Hierarchies, workspaces, and level
//     scratch are single-caller by contract, so the service single-
//     flights all work per cache entry behind a mutex: concurrent
//     requests against different patterns run fully in parallel, while
//     requests against one pattern serialize their setup and solves.
//
// Requests are not coalesced. Each request solves its own right-hand
// sides, one krylov.CGCtx call per column, while it holds the entry
// lock: the solver stack solves one right-hand side per call, and
// multi-RHS batching measured slower than single solves under both AMG
// and Jacobi.
//
// A Service is safe for concurrent use by any number of goroutines. A
// bounded admission semaphore (Config.MaxInFlight) provides backpressure:
// excess requests wait (or fail when their context is canceled) instead
// of piling unbounded work onto the solver. Per-request RequestStats and
// service-wide Metrics expose what each request paid.
//
// Failure domains: the request context is honored past admission — it
// cancels hierarchy construction between levels and the CG iteration
// loop itself. A cancellation never corrupts the cache: the entry stays
// valid and later requests reuse it. Panics in the build/refresh/solve
// critical sections are contained — converted to an error for the
// request, whose cache entry is reset and dropped — instead of killing
// the process. The next request for the pattern rebuilds it, and that
// build goes back in the cache.
//
// Determinism carries over from the underlying stack: a served solution
// is bitwise identical to the same system solved by a sequential single
// caller (krylov.CGCtx on a freshly built hierarchy, multiplying by its
// FineOperator), for any worker count and any cache state — each column
// is solved on its own, and Hierarchy.Refresh is bitwise identical to a
// fresh build.
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
	// MaxBatch caps the right-hand sides one SolveBatch request may
	// carry (default 8). A request solves its columns one after another
	// while holding its pattern's entry lock, so the cap bounds how long
	// one request can hold the pattern.
	MaxBatch int
	// MaxInFlight bounds admitted in-flight requests for backpressure
	// (default 4×GOMAXPROCS).
	MaxInFlight int
	// SolveTimeout, when positive, bounds each request end to end —
	// admission wait, setup, and the solve itself — by composing a
	// deadline onto the caller's context. An expired deadline surfaces
	// as a cancellation wrapping context.DeadlineExceeded (transports
	// map it to 504). Zero (the default) imposes no service-side
	// deadline.
	SolveTimeout time.Duration
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
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
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
// matrix, wrong right-hand-side lengths, too many right-hand sides), so
// transports can distinguish caller errors from solver failures with
// errors.Is.
var ErrBadRequest = errors.New("serve: bad request")

// ErrPanic is wrapped by every error produced by a contained panic in a
// build/refresh/solve critical section. The affected cache entry is
// invalidated and dropped; the panicking request gets this error
// instead of a dead process, and requests queued on the entry rebuild.
var ErrPanic = errors.New("serve: panic in solver critical section")

// isCancellation reports whether err is any of the stack's cancellation
// outcomes (solver-loop, setup, or admission cancel — all of them wrap
// the originating context error).
func isCancellation(err error) bool {
	return errors.Is(err, krylov.ErrCanceled) || errors.Is(err, amg.ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RequestStats reports what one request paid and how its solve went.
type RequestStats struct {
	// Outcome is the hierarchy-cache outcome.
	Outcome Outcome
	// Columns holds the solver stats of this request's right-hand
	// sides, in request order.
	Columns []krylov.Stats
	// Converged reports that every requested column met the tolerance —
	// the explicit signal that a result is an answer, not a best-effort
	// iterate (an exhausted MaxIter additionally returns a classified
	// error wrapping krylov.ErrNotConverged).
	Converged bool
	// RelResidual is the worst (largest) final relative residual across
	// the requested columns: NaN if any column's is NaN, 0 when the
	// request failed before any column was solved.
	RelResidual float64
	// Escalations names the escalation-ladder rungs attempted for this
	// request, in order (nil when the first solve was healthy). When the
	// request ultimately succeeded, the last rung named is the one that
	// recovered it.
	Escalations []string
}

// finalize derives the request-level convergence summary from the
// per-column stats. A NaN column residual counts as the worst: it is
// never hidden behind a finite one, before or after it.
func (st *RequestStats) finalize() {
	st.Converged = len(st.Columns) > 0
	st.RelResidual = 0
	for _, cs := range st.Columns {
		if !cs.Converged {
			st.Converged = false
		}
		if cs.RelResidual > st.RelResidual || math.IsNaN(cs.RelResidual) {
			st.RelResidual = cs.RelResidual
		}
	}
}

// Service is a concurrent solve service. Create one with New; the zero
// value is not usable. All methods are safe for concurrent use.
type Service struct {
	cfg Config
	rt  *par.Runtime
	// solveOpt carries Config's Tol and MaxIter and turns on the
	// krylov health guard: non-finite residuals, divergence and
	// stagnation abort a served solve with a classified error instead
	// of burning the MaxIter budget, and healthy solves are bitwise
	// unchanged. Each solve adds its own preconditioner and workspace.
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
// values), and the solver workspace. key/rows/cols/nnz are immutable;
// elem belongs to the index (guarded by Service.mu, like the map and
// list it lives in); every other field is guarded by mu. Holding mu
// across setup and solve is what makes hierarchies and workspaces —
// single-caller by contract — race-clean under concurrent requests.
type entry struct {
	key             uint64
	rows, cols, nnz int

	mu sync.Mutex
	h  *amg.Hierarchy
	// fine holds the values the hierarchy's numeric state was built
	// from; spare is the ping-pong buffer a Refresh runs against, so a
	// rejected Refresh never clobbers fine (they share the immutable
	// pattern arrays and differ only in Val).
	fine, spare *sparse.Matrix
	// ws is the n-sized CG workspace every column solved on this entry
	// reuses (safe: the entry lock is held for the duration of every
	// solve).
	ws *krylov.Workspace

	elem *list.Element
}

// reset returns the entry to the unbuilt state (must hold e.mu): the
// next request to take the entry lock rebuilds from its own matrix.
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
		solveOpt: krylov.Options{Tol: cfg.Tol, MaxIter: cfg.MaxIter, Health: true},
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
// numeric state, and a CG solve. The returned x is freshly allocated.
// ctx is honored end to end: it bounds admission, cancels hierarchy
// construction between levels, and stops the CG iteration loop itself.
// A canceled request returns an error wrapping the context's cause and
// never a partial solution; the cache entry it touched stays valid for
// later requests.
//
// a and b are only read, and never retained past the call: the service
// keeps its own copy of the matrix, so the caller may mutate or reuse
// both freely after Solve returns.
func (s *Service) Solve(ctx context.Context, a *sparse.Matrix, b []float64) ([]float64, RequestStats, error) {
	xs, st, err := s.SolveBatch(ctx, a, [][]float64{b})
	if len(xs) == 0 {
		return nil, st, err
	}
	return xs[0], st, err
}

// SolveBatch is Solve for a request carrying several right-hand sides
// against one matrix; the columns are solved one after another, one CG
// call each, under a single hold of the entry lock. Stats carries one
// krylov.Stats per column. When some columns fail the error is non-nil
// and wraps the first failing column's error, but every solution and
// per-column stat is still returned (a cancellation or contained panic
// returns none).
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
		// The columns are solved one after another under the entry
		// lock, so the cap bounds how long one request can hold its
		// pattern against every other request for it.
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
	// bounds admission wait, setup, and the solve alike. An expired
	// deadline surfaces through the normal cancellation paths, wrapping
	// context.DeadlineExceeded.
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
	var err error
	e, collision := s.lookup(key, a)
	if !collision {
		xs, collision, err = s.solveCached(ctx, e, a, bs, &st)
	}
	if collision {
		// Serve the request correctly but without touching the cache: a
		// fresh hierarchy and the same column loop as the cached path,
		// so even this path is bitwise identical to the cached one.
		st.Outcome = OutcomeCollision
		xs, st.Columns, err = s.solveFresh(ctx, a, bs, s.cfg.AMG, false, false)
		if errors.Is(err, ErrPanic) {
			s.m.panics.Add(1)
		}
	}
	if err != nil && s.escalatable(err) {
		xs, err = s.escalate(ctx, a, bs, &st, xs, err)
	}
	st.finalize()
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
	return xs, st, err
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
// failure or a contained panic left unusable). Callers hold the entry
// lock, so the entry is out of the index before any request queued on
// it can rebuild it (see reindex). Lock order: e.mu, then s.mu — no
// path takes an entry lock while holding s.mu.
func (s *Service) drop(e *entry) {
	s.mu.Lock()
	if cur, ok := s.entries[e.key]; ok && cur == e {
		delete(s.entries, e.key)
		s.lru.Remove(e.elem)
	}
	s.mu.Unlock()
}

// reindex puts a freshly built entry back in the cache if it was
// dropped and no other entry holds its key since: a request queued on
// an entry that a failure reset rebuilds it, and the next request for
// the pattern should reuse that build. Called with e.mu held.
func (s *Service) reindex(e *entry) {
	s.mu.Lock()
	if _, ok := s.entries[e.key]; !ok {
		s.index(e)
	}
	s.mu.Unlock()
}

// solveCached runs the cached-pattern path: ensure the hierarchy's
// numeric state matches the request's values (build, refresh, or
// nothing), then solve the request's columns, all under the entry lock.
// collision reports an equal-shape fingerprint collision, which the
// caller serves uncached.
func (s *Service) solveCached(ctx context.Context, e *entry, a *sparse.Matrix, bs [][]float64, st *RequestStats) (xs [][]float64, collision bool, err error) {
	e.mu.Lock()
	if err := ctx.Err(); err != nil {
		// Honor cancellation before committing to any setup work.
		// Nothing has been mutated: the entry stays exactly as the
		// previous request left it.
		e.mu.Unlock()
		return nil, false, fmt.Errorf("serve: canceled before solve: %w", context.Cause(ctx))
	}
	switch {
	case e.h == nil:
		// First request for the pattern — or the first to take the lock
		// after a failed build, a deep refresh failure or a contained
		// panic reset the entry: pay the full construction. Requests for
		// the same pattern queue on e.mu meanwhile — the single-flight
		// guarantee that K concurrent first-requests build exactly once.
		if err := s.buildEntry(ctx, e, a); err != nil {
			if errors.Is(err, ErrPanic) {
				s.m.panics.Add(1)
			}
			s.drop(e)
			e.mu.Unlock()
			return nil, false, fmt.Errorf("serve: hierarchy build: %w", err)
		}
		s.reindex(e)
		st.Outcome = OutcomeBuild
		s.m.builds.Add(1)
	case !samePattern(e.fine, a):
		// Equal-shape fingerprint collision: the request's pattern
		// hashes to this entry's key and matches its dimensions and
		// entry count, but is a different pattern. Refreshing would
		// scatter the request's values onto the cached pattern and
		// silently solve the wrong matrix, so serve it uncached.
		e.mu.Unlock()
		s.m.collisions.Add(1)
		return nil, true, nil
	case sameValues(e.fine.Val, a.Val):
		// Same operator as the cached numeric state: pay nothing.
		st.Outcome = OutcomeReuse
		s.m.valueHits.Add(1)
	default:
		if err := s.refreshEntry(ctx, e, a); err != nil {
			panicked := errors.Is(err, ErrPanic)
			if panicked {
				s.m.panics.Add(1)
			}
			if panicked || !e.h.Valid() {
				// The numeric state is no longer trustworthy. Reset the
				// entry while still holding its lock — same-pattern
				// requests queued on e.mu must find the unbuilt state and
				// rebuild, never an invalidated hierarchy (whose
				// Precondition panics) — and retire it from the index so
				// the next lookup starts fresh.
				e.reset()
				s.drop(e)
				e.mu.Unlock()
			} else {
				// Pre-mutation rejection (bad values, cancellation
				// caught before the replay touched anything): the
				// previous numeric state is fully usable, keep it.
				e.mu.Unlock()
			}
			return nil, false, fmt.Errorf("serve: hierarchy refresh: %w", err)
		}
		st.Outcome = OutcomeRefresh
		s.m.refreshes.Add(1)
	}
	xs, st.Columns, err = s.solveEntry(ctx, e, bs)
	if errors.Is(err, ErrPanic) {
		// The panic may have struck mid-update inside the hierarchy or
		// workspace: nothing about the entry's solver state can be
		// trusted anymore. Reset it (queued requests rebuild) and retire
		// it.
		s.m.panics.Add(1)
		e.reset()
		s.drop(e)
	}
	e.mu.Unlock()
	return xs, false, err
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
// isolation. Called with e.mu held. On return the caller classifies the
// error: pre-mutation rejections (including a cancellation caught
// before the replay) leave the entry usable; ErrPanic or an invalidated
// hierarchy mean the entry must be reset and dropped.
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

// solveEntry solves the request's columns on the entry's hierarchy
// and workspace, with panic isolation. Called with e.mu held.
func (s *Service) solveEntry(ctx context.Context, e *entry, bs [][]float64) (xs [][]float64, cols []krylov.Stats, err error) {
	defer recoverTo(&err)
	if err := s.fault(FaultSolve, ctx); err != nil {
		return nil, nil, fmt.Errorf("serve: solve: %w", err)
	}
	s.m.batchSolves.Add(1)
	s.m.batchedRHS.Add(int64(len(bs)))
	return s.solveColumns(ctx, e.h, e.ws, bs, false)
}

// solveFresh solves the request's columns on a hierarchy built for this
// request alone with opt, by CG or, when gmres is set, GMRES. It serves
// fingerprint collisions and every escalation rung; a rung (escalation
// set) first fires FaultEscalate and is not counted in BatchSolves.
// Nothing touches the cache, so a failure leaves no state behind and a
// result is bitwise reproducible by a sequential caller using the same
// options. Panics are contained (an error wrapping ErrPanic) and
// counted by the caller: the state is request-local, but the process
// must survive.
func (s *Service) solveFresh(ctx context.Context, a *sparse.Matrix, bs [][]float64, opt amg.Options, gmres, escalation bool) (xs [][]float64, cols []krylov.Stats, err error) {
	defer recoverTo(&err)
	if escalation {
		if err := s.fault(FaultEscalate, ctx); err != nil {
			return nil, nil, err
		}
	}
	h, err := amg.BuildCtx(ctx, a, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: hierarchy build: %w", err)
	}
	if !escalation {
		s.m.batchSolves.Add(1)
		s.m.batchedRHS.Add(int64(len(bs)))
	}
	return s.solveColumns(ctx, h, krylov.NewWorkspace(a.Rows), bs, gmres)
}

// solveColumns solves A x = b for each column b of bs on its own, from
// a zero initial guess, with h as the preconditioner and
// h.FineOperator() as A: CG, or GMRES when gmres is set. The cached
// path, the collision path and every escalation rung solve through it.
// A cancellation stops the loop and returns no solutions — a partial
// iterate must never be mistaken for an answer. Any other failure is
// recorded and the loop goes on, so every column's x and Stats come
// back, with an error wrapping the first failing column's.
func (s *Service) solveColumns(ctx context.Context, h *amg.Hierarchy, ws *krylov.Workspace, bs [][]float64, gmres bool) ([][]float64, []krylov.Stats, error) {
	o := s.solveOpt
	o.M, o.Work = h, ws
	xs := make([][]float64, len(bs))
	cols := make([]krylov.Stats, len(bs))
	var first error
	failed := 0
	for j, b := range bs {
		xs[j] = make([]float64, len(b))
		var err error
		if gmres {
			cols[j], err = krylov.GMRESCtx(ctx, s.rt, h.FineOperator(), b, xs[j], 0, o)
		} else {
			cols[j], err = krylov.CGCtx(ctx, s.rt, h.FineOperator(), b, xs[j], o)
		}
		switch {
		case err == nil:
		case errors.Is(err, krylov.ErrCanceled):
			return nil, nil, fmt.Errorf("serve: solve canceled: %w", err)
		default:
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if first != nil {
		return xs, cols, fmt.Errorf("serve: %d of %d requested right-hand side(s) failed: %w", failed, len(bs), first)
	}
	return xs, cols, nil
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
