// Package amg implements smoothed-aggregation algebraic multigrid
// (SA-AMG), the solver substrate of the paper's Table V experiment: a
// hierarchy built by repeatedly aggregating the matrix graph (with a
// pluggable aggregation scheme such as Algorithm 3), forming the smoothed
// prolongator P = (I - omega D^{-1} A) P0, and the Galerkin coarse
// operator R A P, solved by damped-Jacobi-smoothed V-cycles with a dense
// LU factorization on the coarsest level.
//
//amg:deterministic
package amg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"mis2go/internal/coarsen"
	"mis2go/internal/graph"
	"mis2go/internal/gs"
	"mis2go/internal/hash"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// ErrCanceled is wrapped by every setup error caused by a canceled
// context (alongside the context's cause, so errors.Is also matches
// context.Canceled / context.DeadlineExceeded). The Ctx setup variants
// check between levels: a cancellation caught before the numeric phase
// mutates anything leaves the previous numeric state fully usable, while
// one caught between level replays invalidates the hierarchy exactly
// like any other mid-replay failure (Valid reports false).
var ErrCanceled = errors.New("amg: setup canceled")

// ErrBadValues is wrapped by every pre-mutation value rejection of the
// numeric phase — non-finite entries, a zero or missing diagonal, a
// diagonal sign flip on Refresh. These are properties of the submitted
// values, not of the solver: no retry or escalation can fix them, so
// callers (the serve escalation ladder in particular) can classify them
// with errors.Is and fail fast instead of re-solving.
var ErrBadValues = errors.New("amg: matrix values unusable")

// ctxErr reports the context's cancellation state; nil contexts never
// cancel (the context-free entry points pass nil).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func cancelAt(ctx context.Context, phase string, level int) error {
	return fmt.Errorf("%w: %s stopped before level %d: %w", ErrCanceled, phase, level, context.Cause(ctx))
}

// AggregateFunc produces an aggregation of the given matrix graph.
type AggregateFunc func(g *graph.CSR) coarsen.Aggregation

// Smoother selects the level relaxation method.
type Smoother int

// The two smoothers keep their historical numbers. Values 1 and 3 named
// the Chebyshev and cluster-SGS smoothers, which were removed (DESIGN.md,
// "Decision record: Chebyshev and cluster-SGS AMG smoothers removed");
// they stay unassigned, so setup rejects them like any other unknown
// value instead of silently running a different smoother.
const (
	// SmootherJacobi is damped Jacobi, the paper's Table V setup.
	SmootherJacobi Smoother = 0
	// SmootherPointSGS relaxes with point multicolor symmetric
	// Gauss-Seidel (§III-C), set up per level during the numeric phase.
	SmootherPointSGS Smoother = 2
)

// jacobiDamping is the Jacobi damping factor of Table V's setup.
const jacobiDamping = 2.0 / 3.0

// Options configures hierarchy construction. Zero values select the
// defaults noted on each field. The storage format of each level's
// apply-side operator is not an option: sparse.ChooseFormat picks
// SELL-C-sigma for large regular levels and CSR otherwise, and the
// formats are bit-compatible, so results never depend on the choice.
type Options struct {
	// Aggregate selects the aggregation scheme; default is Algorithm 3
	// (coarsen.MIS2Aggregation).
	Aggregate AggregateFunc
	// MaxLevels caps the hierarchy depth (default 10).
	MaxLevels int
	// MinCoarseSize stops coarsening once a level is this small
	// (default 200); that level is solved directly.
	MinCoarseSize int
	// PreSweeps and PostSweeps are the smoothing sweep counts per
	// V-cycle (default 2 and 2: "2 sweeps of the Jacobi method" as in
	// Table V's setup).
	PreSweeps, PostSweeps int
	// Smoother selects the relaxation method: SmootherJacobi (the
	// default) or SmootherPointSGS. Any other value is a setup error.
	Smoother Smoother
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
}

func (o Options) withDefaults() Options {
	if o.Aggregate == nil {
		threads := o.Threads
		o.Aggregate = func(g *graph.CSR) coarsen.Aggregation {
			return coarsen.MIS2Aggregation(g, coarsen.Options{Threads: threads})
		}
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 10
	}
	if o.MinCoarseSize <= 0 {
		o.MinCoarseSize = 200
	}
	if o.PreSweeps == 0 {
		o.PreSweeps = 2
	}
	if o.PostSweeps == 0 {
		o.PostSweeps = 2
	}
	return o
}

// Level is one rung of the hierarchy.
type Level struct {
	A    *sparse.Matrix
	P    *sparse.Matrix // prolongator to this level from the next coarser (nil on coarsest)
	R    *sparse.Matrix // restriction (P^T)
	Agg  coarsen.Aggregation
	dinv []float64
	// op is the apply-side view of A in the format sparse.ChooseFormat
	// picks (A itself for CSR; a SELL conversion otherwise, whose packed
	// values the numeric phase refills). The setup side (plan replays,
	// graph extraction) always works on the CSR A.
	op sparse.Operator
	// rho is the estimated spectral radius of D^{-1}A on this level,
	// used by prolongator smoothing.
	rho float64
	// gsOp is the point multicolor Gauss-Seidel operator when
	// SmootherPointSGS is selected (nil otherwise, and on the coarsest
	// level, which is solved densely). Its color sets come from the
	// symbolic phase; the numeric phase refills its values.
	gsOp *gs.Multicolor
	// Scratch vectors sized to this level.
	x, b, r, d []float64
}

// levelPlan holds the cached symbolic state of one level's setup: the
// tentative prolongator (whose values depend only on aggregate sizes,
// i.e. on the pattern) and the SpGEMM plans for the smoothed
// prolongator, its transpose, and the Galerkin product. Everything here
// is a pure function of the fine matrix's sparsity pattern, so
// BuildNumeric and Refresh replay it for any same-pattern values.
type levelPlan struct {
	p0     *sparse.Matrix
	smooth *sparse.SmoothPlan
	trans  *sparse.TransposePlan
	rap    *sparse.RAPPlan
}

// Hierarchy is a built SA-AMG preconditioner. It implements
// krylov.Preconditioner via Precondition (one V-cycle, zero initial
// guess).
//
// Concurrency: a Hierarchy is single-caller mutable state — Precondition,
// BuildNumeric, and Refresh all write the level scratch vectors (and the
// latter two the level operators), so no two of them may run
// concurrently on one instance. Distinct hierarchies are independent and
// may be used from any number of goroutines (they share only the
// process-wide worker pool, which is concurrency-safe). A serving layer
// that multiplexes goroutines onto hierarchies must hold a per-hierarchy
// lock across every call; internal/serve does exactly that.
type Hierarchy struct {
	Levels []*Level
	coarse *sparse.Dense
	opt    Options
	rt     *par.Runtime
	// plans holds one cached symbolic plan per level (the coarsest
	// level's plan carries no SpGEMM state).
	plans []*levelPlan
	// fing fingerprints the fine-level sparsity pattern the symbolic
	// phase was built for; BuildNumeric and Refresh reject mismatches.
	fing uint64
	// diagPos[i] is the entry index of row i's diagonal in the fine
	// pattern (-1 when absent) — pattern-derived, computed once in the
	// symbolic phase so the pre-mutation value validation of every
	// numeric pass gathers diagonals instead of re-searching rows.
	diagPos []int
	// valid is true when the numeric phase has completed successfully:
	// a numeric error (zero diagonal surfacing on a coarse Galerkin
	// level, degenerate spectral radius) aborts mid-replay and leaves
	// the levels half-refreshed, so Precondition refuses to run
	// until a later BuildNumeric or Refresh succeeds. Pre-mutation
	// rejections (pattern mismatch, non-finite values, zero/missing/
	// sign-flipped fine diagonal — see validateValues) leave validity
	// untouched.
	valid bool
}

// Build constructs the hierarchy for SPD matrix a. It is the composition
// of the symbolic and numeric phases: BuildSymbolic derives everything
// that depends only on the sparsity pattern (graphs, MIS-2 aggregation,
// the tentative prolongator, cached SpGEMM plans, level storage) and
// BuildNumeric fills in everything value-dependent (diagonals, spectral
// radii, plan replays, the coarse factorization). The split produces
// hierarchies bitwise identical to the seed's fused construction.
func Build(a *sparse.Matrix, opt Options) (*Hierarchy, error) {
	return BuildCtx(nil, a, opt)
}

// BuildCtx is Build with cooperative cancellation, checked between
// levels of both setup phases. A canceled build returns an error
// wrapping ErrCanceled (and the context's cause) and no hierarchy; no
// partially built hierarchy escapes. ctx may be nil (never cancels).
func BuildCtx(ctx context.Context, a *sparse.Matrix, opt Options) (*Hierarchy, error) {
	h, err := BuildSymbolicCtx(ctx, a, opt)
	if err != nil {
		return nil, err
	}
	// The symbolic phase validated a (finite values included) and
	// fingerprinted this very pattern, so of BuildNumericCtx's checks
	// only the diagonal ones can still fail.
	if err := h.checkDiagonal(a, false); err != nil {
		return nil, err
	}
	if err := h.numeric(ctx, a); err != nil {
		return nil, err
	}
	return h, nil
}

// BuildSymbolic runs the pattern-dependent half of setup for SPD matrix
// a: level graphs, aggregation, the tentative prolongator P0 (whose
// values are a function of aggregate sizes, i.e. of the pattern alone),
// the SpGEMM plans for prolongator smoothing / transposition / the
// Galerkin product, the point-SGS color sets when that smoother is
// selected, and all level storage. The returned hierarchy is
// not usable until BuildNumeric fills in the values; a's values are read
// only by the initial Validate.
func BuildSymbolic(a *sparse.Matrix, opt Options) (*Hierarchy, error) {
	return BuildSymbolicCtx(nil, a, opt)
}

// BuildSymbolicCtx is BuildSymbolic with cooperative cancellation,
// checked once per level before that level's aggregation and plan
// construction. ctx may be nil (never cancels).
func BuildSymbolicCtx(ctx context.Context, a *sparse.Matrix, opt Options) (*Hierarchy, error) {
	opt = opt.withDefaults()
	if opt.Smoother != SmootherJacobi && opt.Smoother != SmootherPointSGS {
		return nil, fmt.Errorf("amg: unknown smoother %d (want SmootherJacobi or SmootherPointSGS)", int(opt.Smoother))
	}
	if a.Rows != a.Cols {
		return nil, errors.New("amg: matrix must be square")
	}
	rt := par.New(opt.Threads)
	if err := a.ValidateWith(rt); err != nil {
		return nil, fmt.Errorf("amg: invalid matrix: %w", err)
	}
	h := &Hierarchy{
		opt: opt, rt: rt,
		fing: hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col),
	}
	h.diagPos = make([]int, a.Rows)
	rt.For(a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h.diagPos[i] = -1
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				if int(a.Col[p]) == i {
					h.diagPos[i] = p
					break
				}
			}
		}
	})

	cur := a
	for level := 0; ; level++ {
		if err := ctxErr(ctx); err != nil {
			return nil, cancelAt(ctx, "symbolic setup", level)
		}
		l := &Level{A: cur}
		lp := &levelPlan{}
		l.dinv = make([]float64, cur.Rows)
		l.x = make([]float64, cur.Rows)
		l.b = make([]float64, cur.Rows)
		l.r = make([]float64, cur.Rows)
		l.d = make([]float64, cur.Rows)
		l.op = cur
		h.Levels = append(h.Levels, l)
		h.plans = append(h.plans, lp)

		if cur.Rows <= opt.MinCoarseSize || level+1 >= opt.MaxLevels {
			break
		}

		g := cur.GraphWith(rt)
		agg := opt.Aggregate(g)
		if err := coarsen.Check(g, agg); err != nil {
			return nil, fmt.Errorf("amg: level %d aggregation: %w", level, err)
		}
		if agg.NumAggregates >= cur.Rows {
			break // no coarsening progress; stop here
		}
		l.Agg = agg

		// Choose the level's apply-side operator format — only now that
		// the level is known not to be the coarsest (the coarsest level is
		// solved densely, its op never applied, so converting it would be
		// pure waste). The SELL layout (row sort, chunk sizes and columns)
		// is part of the symbolic state; the numeric phase refills its
		// values.
		l.op = sparse.NewOperatorWith(rt, cur)
		// The smoother's color sets depend on the pattern alone; the
		// numeric phase only refills its values.
		if opt.Smoother == SmootherPointSGS {
			op, err := gs.NewPointPattern(cur, opt.Threads)
			if err != nil {
				return nil, fmt.Errorf("amg: level %d point SGS setup: %w", level, err)
			}
			l.gsOp = op
		}

		p0 := coarsen.Prolongator(agg)
		sp, err := sparse.PlanSmoothProlongator(rt, cur, p0)
		if err != nil {
			return nil, fmt.Errorf("amg: level %d prolongator smoothing: %w", level, err)
		}
		lp.p0, lp.smooth = p0, sp
		p := sp.NewMatrix()
		if p.NNZ() > math.MaxInt32 {
			return nil, fmt.Errorf("amg: level %d prolongator has %d entries, over the 32-bit transpose plan bound", level, p.NNZ())
		}
		lp.trans = sparse.PlanTranspose(rt, p)
		r := lp.trans.NewMatrix()
		rp, err := sparse.PlanRAP(rt, r, cur, p)
		if err != nil {
			return nil, fmt.Errorf("amg: level %d Galerkin product: %w", level, err)
		}
		lp.rap = rp
		l.P, l.R = p, r
		cur = rp.NewMatrix()
	}

	// A one-level hierarchy converts level 0 anyway: its op is also the
	// outer Krylov matvec (FineOperator).
	if len(h.Levels) == 1 {
		h.Levels[0].op = sparse.NewOperatorWith(rt, h.Levels[0].A)
	}

	// Preallocate the dense coarse factorization (pattern-sized storage;
	// the sane-order bound catches misconfigured coarse sizes here,
	// before any numeric work).
	last := h.Levels[len(h.Levels)-1]
	dense, err := sparse.NewDense(last.A.Rows)
	if err != nil {
		return nil, fmt.Errorf("amg: coarse level: %w", err)
	}
	h.coarse = dense
	return h, nil
}

// BuildNumeric runs the values-only half of setup: level diagonals,
// spectral-radius estimates, smoother values, the plan replays for
// the smoothed prolongator / restriction / Galerkin product chain, and
// the dense coarse factorization. a must carry the exact sparsity
// pattern BuildSymbolic saw (checked via fingerprint); its values may
// differ. Calling BuildNumeric again — or Refresh, its alias with
// re-setup semantics — replays the numeric phase in place.
func (h *Hierarchy) BuildNumeric(a *sparse.Matrix) error {
	return h.BuildNumericCtx(nil, a)
}

// BuildNumericCtx is BuildNumeric with cooperative cancellation, checked
// once before the replay mutates anything (the previous numeric state,
// if any, stays fully usable) and then between level replays (a cancel
// there invalidates the hierarchy exactly like any other mid-replay
// failure). ctx may be nil (never cancels).
func (h *Hierarchy) BuildNumericCtx(ctx context.Context, a *sparse.Matrix) error {
	if err := h.checkSamePattern(a); err != nil {
		return err
	}
	// A full numeric rebuild accepts any usable values — unlike Refresh
	// it carries no "same operator, updated values" contract, so no
	// sign consistency against the previous state is demanded and
	// repeated BuildNumeric calls stay history-independent.
	if err := h.validateValues(a, false); err != nil {
		return err
	}
	return h.numeric(ctx, a)
}

// Refresh re-runs the numeric setup phase for a matrix with the same
// sparsity pattern as the one the hierarchy was built for (a time step,
// Newton iteration, or parameter sweep with changing values): cached
// SpGEMM plans are replayed, level matrices and the coarse factorization
// are refilled in place, and the MIS-2 aggregation and all pattern work
// are reused. The pattern is checked via fingerprint and a mismatch is
// a clean error — Refresh never silently rebuilds. The refreshed
// hierarchy is bitwise identical to a fresh Build of the same matrix.
// The plans hold only their patterns, so the first Refresh after a
// build does the same work as every later one. With either smoother a
// Refresh performs zero heap allocations once the worker arenas hold
// the replay accumulators: the point Gauss-Seidel smoother keeps the
// color sets of the symbolic phase and refills only its inverse
// diagonal.
//
// All foreseeable rejections happen before any level state is touched —
// pattern mismatch, non-finite values, and a zero, missing, or
// sign-flipped fine diagonal are validated up front (see validateValues)
// — so a rejected Refresh leaves the previous operator fully usable. An
// error during the numeric replay itself (a zero diagonal surfacing only
// on a coarse Galerkin level, a degenerate spectral radius) still leaves
// the levels half-refreshed: the hierarchy is invalidated (Valid reports
// false) and Precondition panics until a subsequent Refresh or
// BuildNumeric succeeds.
func (h *Hierarchy) Refresh(a *sparse.Matrix) error {
	return h.RefreshCtx(nil, a)
}

// RefreshCtx is Refresh with cooperative cancellation, with the same
// two-zone semantics as BuildNumericCtx: a cancel caught before the
// replay touches level state is one more pre-mutation rejection (the
// previous operator stays fully usable, Valid unchanged), while a
// cancel between level replays invalidates the hierarchy like any other
// mid-replay failure. ctx may be nil (never cancels).
func (h *Hierarchy) RefreshCtx(ctx context.Context, a *sparse.Matrix) error {
	if err := h.checkSamePattern(a); err != nil {
		return err
	}
	if err := h.validateValues(a, h.valid); err != nil {
		return err
	}
	return h.numeric(ctx, a)
}

// checkSamePattern verifies that a matches the symbolic phase's fine
// matrix in shape and pattern (fingerprint).
func (h *Hierarchy) checkSamePattern(a *sparse.Matrix) error {
	fine := h.Levels[0].A
	if a.Rows != fine.Rows || a.Cols != fine.Cols {
		return fmt.Errorf("amg: refresh matrix is %dx%d, hierarchy was built for %dx%d", a.Rows, a.Cols, fine.Rows, fine.Cols)
	}
	if len(a.Col) != len(fine.Col) || hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col) != h.fing {
		return fmt.Errorf("amg: refresh matrix sparsity pattern differs from the symbolic setup (%d nnz vs %d); rebuild with BuildSymbolic for a new pattern", len(a.Col), len(fine.Col))
	}
	return nil
}

// validateValues rejects value sets that cannot produce a usable numeric
// state, before the replay mutates anything: non-finite entries (the
// lowest entry first), then the diagonal checks (checkDiagonal). Both
// scans run over row blocks and report the lowest failure, so the error
// is the same at any worker count; at one worker they build no closure.
// Catching all of these up front is what lets a rejected Refresh leave
// the previous operator fully usable.
func (h *Hierarchy) validateValues(a *sparse.Matrix, checkSign bool) error {
	var err error
	if n := len(a.Val); h.rt.Serial(n) {
		err = checkFinite(a.Val, 0, n)
	} else {
		err = h.rt.FirstError(n, func(lo, hi int) error { return checkFinite(a.Val, lo, hi) })
	}
	if err != nil {
		return err
	}
	return h.checkDiagonal(a, checkSign)
}

// checkFinite reports the first non-finite entry of val[lo:hi].
func checkFinite(val []float64, lo, hi int) error {
	for p, v := range val[lo:hi] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite value at entry %d", ErrBadValues, lo+p)
		}
	}
	return nil
}

// checkDiagonal rejects rows whose diagonal is zero or absent (every
// level diagonal inversion and smoother needs it) and — with checkSign,
// the Refresh contract — fine diagonal entries whose sign flipped
// relative to the current operator, the classic symptom of a corrupted
// or mis-assembled re-setup matrix (an SPD operator turning indefinite).
// It reports the lowest failing row. checkSign must only be set when the
// hierarchy holds a valid numeric state (dinv is read as the previous
// diagonal's sign).
func (h *Hierarchy) checkDiagonal(a *sparse.Matrix, checkSign bool) error {
	if n := len(h.diagPos); h.rt.Serial(n) {
		return h.checkDiagonalRows(a, checkSign, 0, n)
	}
	return h.rt.FirstError(len(h.diagPos), func(lo, hi int) error { return h.checkDiagonalRows(a, checkSign, lo, hi) })
}

// checkDiagonalRows runs checkDiagonal's checks on rows [lo, hi).
func (h *Hierarchy) checkDiagonalRows(a *sparse.Matrix, checkSign bool, lo, hi int) error {
	prev := h.Levels[0].dinv // same sign as the previous diagonal (it is its inverse)
	for i := lo; i < hi; i++ {
		diag := 0.0
		if p := h.diagPos[i]; p >= 0 {
			diag = a.Val[p]
		}
		if diag == 0 {
			return fmt.Errorf("%w: zero diagonal at row %d of the fine matrix", ErrBadValues, i)
		}
		if checkSign && (diag > 0) != (prev[i] > 0) {
			return fmt.Errorf("%w: diagonal sign flip at row %d (was %g, now %g); refusing to refresh onto a structurally different operator",
				ErrBadValues, i, 1/prev[i], diag)
		}
	}
	return nil
}

// numeric fills every value-dependent piece of the hierarchy from a,
// replaying the cached plans level by level. Any error leaves the
// hierarchy invalidated (mid-replay state is inconsistent) until a
// subsequent numeric pass succeeds — except a cancellation caught by
// the entry check, which returns before anything is touched.
func (h *Hierarchy) numeric(ctx context.Context, a *sparse.Matrix) error {
	if err := ctxErr(ctx); err != nil {
		// Pre-mutation: the previous numeric state (if any) is untouched
		// and fully usable; h.valid is deliberately left as-is.
		return cancelAt(ctx, "numeric setup", 0)
	}
	rt := h.rt
	h.valid = false
	h.Levels[0].A = a
	for level, l := range h.Levels {
		if level > 0 {
			if err := ctxErr(ctx); err != nil {
				return cancelAt(ctx, "numeric setup", level)
			}
		}
		cur := l.A
		// Refresh the level's apply-side operator: a SELL level walks the
		// new values into its chunks; CSR levels just re-point (the fine
		// level's A was swapped above).
		if s, ok := l.op.(*sparse.SELL); ok {
			if err := s.FillValues(rt, cur); err != nil {
				return fmt.Errorf("amg: level %d operator refresh: %w", level, err)
			}
		} else {
			l.op = cur
		}
		cur.DiagonalInto(rt, l.dinv)
		for i, d := range l.dinv {
			if d == 0 {
				return fmt.Errorf("amg: zero diagonal at row %d of level %d", i, level)
			}
			l.dinv[i] = 1 / d
		}
		// The power iteration runs on the just-refreshed apply-side
		// operator (bit-identical to cur in either format) and borrows the
		// level's solve scratch (fully overwritten before any solve reads
		// it).
		l.rho = estimateSpectralRadius(rt, l.op, l.dinv, 15, l.x, l.r)
		lp := h.plans[level]
		if l.gsOp != nil {
			if err := l.gsOp.Refill(cur); err != nil {
				return fmt.Errorf("amg: level %d point SGS setup: %w", level, err)
			}
		}
		if lp.rap == nil {
			break // coarsest level
		}
		if l.rho <= 0 {
			// The fused seed build falls back to the unsmoothed P0 here,
			// which would change the cached pattern; it can only occur for
			// degenerate (all-cancelling) operators.
			return fmt.Errorf("amg: level %d: non-positive spectral radius estimate; cannot replay the smoothed-prolongator pattern", level)
		}
		omega := (4.0 / 3.0) / l.rho
		// Replay (not Numeric): the fine pattern was fingerprint-checked
		// once in checkSamePattern and every other operand is
		// hierarchy-owned, so the per-plan O(nnz) re-verification would
		// only re-prove the same fact on every level.
		if err := lp.smooth.Replay(rt, cur, lp.p0, l.dinv, omega, l.P); err != nil {
			return fmt.Errorf("amg: level %d prolongator smoothing: %w", level, err)
		}
		if err := lp.trans.Replay(rt, l.P, l.R); err != nil {
			return fmt.Errorf("amg: level %d restriction: %w", level, err)
		}
		if err := lp.rap.Replay(rt, l.R, cur, l.P, h.Levels[level+1].A); err != nil {
			return fmt.Errorf("amg: level %d Galerkin product: %w", level, err)
		}
	}

	// Refactor the coarsest level densely, in place.
	last := h.Levels[len(h.Levels)-1]
	if err := h.coarse.FillFrom(last.A); err != nil {
		return fmt.Errorf("amg: coarse level: %w", err)
	}
	if err := h.coarse.Factorize(); err != nil {
		return fmt.Errorf("amg: coarse factorization: %w", err)
	}
	h.valid = true
	return nil
}

// checkValid panics when the hierarchy's numeric state is unusable —
// either BuildNumeric never ran or the last numeric pass failed partway
// through. Precondition cannot return an error (krylov.Preconditioner),
// and solving with half-refreshed operators would silently corrupt
// results, so misuse fails loudly instead.
func (h *Hierarchy) checkValid() {
	if !h.valid {
		panic("amg: hierarchy has no valid numeric state (BuildNumeric never succeeded, or the last Refresh failed); run BuildNumeric/Refresh successfully before solving")
	}
}

// estimateSpectralRadius runs a deterministic power iteration on D^{-1}A
// for the square operator a, using caller-provided scratch vectors x and
// y (length len(dinv), fully overwritten), so repeated numeric setups
// allocate nothing at one worker. The vector passes run over row
// blocks: each block keeps its own max |y_i|, and the max over the
// blocks is the same number the serial pass finds (max is exact), so the
// estimate has the same bits at any worker count.
func estimateSpectralRadius(rt *par.Runtime, a sparse.Operator, dinv []float64, iters int, x, y []float64) float64 {
	n := len(dinv)
	x = x[:n]
	y = y[:n]
	for i := range x {
		// Deterministic pseudo-random start vector.
		x[i] = 0.5 + float64((i*2654435761)%1024)/2048.0
	}
	// The parallel passes; nil on the serial path, which builds no
	// closure.
	var scaleMax func() float64
	var rescale func(s float64)
	if !rt.Serial(n) {
		scaleMax, rescale = powerPasses(rt, x, y, dinv)
	}
	lambda := 0.0
	for it := 0; it < iters; it++ {
		a.SpMV(rt, x, y)
		var norm float64
		if scaleMax == nil {
			norm = scaleMaxAbs(y, dinv, 0, n)
		} else {
			norm = scaleMax()
		}
		if norm == 0 {
			return 0
		}
		lambda = norm
		inv := 1 / norm
		if rescale == nil {
			scaleInto(x, y, inv, 0, n)
		} else {
			rescale(inv)
		}
	}
	return lambda
}

// powerPasses returns the power iteration's two vector passes over
// rt's row blocks: scaleMax scales y by dinv and returns max |y_i| (the
// max of the blocks' maxima), and rescale sets x = y*s. The closures
// are built once per estimate, and each pass hands rt.For a prebuilt
// one; a block finds its slot of peak from its first row, since For's
// blocks are the ones rt.Blocks lists.
func powerPasses(rt *par.Runtime, x, y, dinv []float64) (scaleMax func() float64, rescale func(s float64)) {
	n := len(y)
	blocks := rt.Blocks(n)
	peak := make([]float64, len(blocks)-1)
	var inv float64
	scaleRange := func(lo, hi int) { peak[sort.SearchInts(blocks, lo)] = scaleMaxAbs(y, dinv, lo, hi) }
	rescaleRange := func(lo, hi int) { scaleInto(x, y, inv, lo, hi) }
	scaleMax = func() float64 {
		rt.For(n, scaleRange)
		return maxAbs(peak)
	}
	rescale = func(s float64) {
		inv = s
		rt.For(n, rescaleRange)
	}
	return scaleMax, rescale
}

// scaleMaxAbs scales y[lo:hi] by dinv in place and returns the largest
// |y_i| of the range, starting from 0 (NaNs never compare larger).
func scaleMaxAbs(y, dinv []float64, lo, hi int) float64 {
	y, dinv = y[lo:hi], dinv[lo:hi]
	dinv = dinv[:len(y)]
	norm := 0.0
	for i := range y {
		v := y[i] * dinv[i]
		y[i] = v
		if v > norm {
			norm = v
		} else if -v > norm {
			norm = -v
		}
	}
	return norm
}

// maxAbs returns the largest of the blocks' maxima (each at least +0).
func maxAbs(peak []float64) float64 {
	norm := 0.0
	for _, v := range peak {
		if v > norm {
			norm = v
		}
	}
	return norm
}

// scaleInto sets x[i] = y[i]*s for i in [lo, hi).
func scaleInto(x, y []float64, s float64, lo, hi int) {
	x, y = x[lo:hi], y[lo:hi]
	x = x[:len(y)]
	for i, v := range y {
		x[i] = v * s
	}
}

// Valid reports whether the hierarchy holds a usable numeric state:
// true after a successful BuildNumeric or Refresh, false before the
// first numeric pass and after a mid-replay numeric failure (in which
// case Precondition panics until a numeric pass succeeds).
// Pre-mutation rejections never change it.
func (h *Hierarchy) Valid() bool { return h.valid }

// NumLevels returns the hierarchy depth.
func (h *Hierarchy) NumLevels() int { return len(h.Levels) }

// Format reports the storage format of the level's apply-side operator.
func (l *Level) Format() sparse.Format {
	switch l.op.(type) {
	case *sparse.SELL:
		return sparse.FormatSELL
	}
	return sparse.FormatCSR
}

// FineOperator returns level 0's apply-side operator: the fine matrix in
// the format sparse.ChooseFormat picks. It is the operator the outer
// Krylov iteration multiplies by. Every successful BuildNumeric or
// Refresh updates it in place, so callers hold no copy to refill. Like
// the rest of the hierarchy it is single-caller state.
func (h *Hierarchy) FineOperator() sparse.Operator { return h.Levels[0].op }

// OperatorComplexity is the sum of nnz over all level operators divided by
// nnz of the fine operator — the standard AMG grid quality metric.
func (h *Hierarchy) OperatorComplexity() float64 {
	total := 0
	for _, l := range h.Levels {
		total += l.A.NNZ()
	}
	return float64(total) / float64(h.Levels[0].A.NNZ())
}

// Precondition applies one V-cycle with zero initial guess: z ≈ A^{-1} r.
//
//amg:hotpath
func (h *Hierarchy) Precondition(r, z []float64) {
	h.checkValid()
	for i := range z {
		z[i] = 0
	}
	copy(h.Levels[0].b, r)
	h.vcycle(0)
	copy(z, h.Levels[0].x)
}

// vcycle runs one V-cycle on level l using l.b as right-hand side,
// leaving the correction in l.x. The level passes are fused: the
// residual's elementwise subtraction rides the SpMV traversal
// (SpMVResidual) feeding the restriction directly, and the coarse-grid
// correction rides the prolongation traversal (SpMVAdd) feeding the
// post-smoother — eliminating two full-vector passes per level relative
// to the unfused cycle, with bitwise-identical results.
//
//amg:hotpath
func (h *Hierarchy) vcycle(level int) {
	l := h.Levels[level]
	if level == len(h.Levels)-1 {
		h.coarse.Solve(l.b, l.x)
		return
	}
	for i := range l.x {
		l.x[i] = 0
	}
	h.smooth(l, h.opt.PreSweeps, true)
	// Fused residual + restriction: one traversal of A (in the level's
	// chosen format) writes r = b - A x, which the R traversal consumes
	// immediately.
	l.op.SpMVResidual(h.rt, l.b, l.x, l.r)
	next := h.Levels[level+1]
	l.R.SpMV(h.rt, l.r, next.b)
	h.vcycle(level + 1)
	// Fused prolongation + correction: x += P e_c in one traversal,
	// handing the corrected iterate straight to the post-smoother.
	l.P.SpMVAdd(h.rt, next.x, l.x)
	h.smooth(l, h.opt.PostSweeps, false)
}

// smooth dispatches to the configured relaxation method. xZero tells the
// smoother the iterate is exactly zero on entry (the pre-smoothing
// position of the V-cycle), enabling the first-sweep shortcut.
//
//amg:hotpath
func (h *Hierarchy) smooth(l *Level, sweeps int, xZero bool) {
	if h.opt.Smoother == SmootherPointSGS {
		l.gsOp.Apply(l.b, l.x, sweeps, true)
		return
	}
	h.jacobi(l, sweeps, xZero)
}

// jacobi runs damped Jacobi sweeps on l.A x = l.b, leaving the result in
// l.x. Each sweep is a single fused traversal of the level operator (the
// format-dispatched JacobiSweep kernel): the row product, the
// damped-diagonal update, and the write of the new iterate happen per
// row, ping-ponging between l.x and the l.d scratch instead of staging
// the product in l.r (Jacobi needs the full old iterate, so the new one
// goes to the other buffer — in-place would turn rows into Gauss-Seidel
// updates and break determinism). When xZero is set the first sweep
// skips the traversal entirely: A*0 is exactly zero, so the sweep
// reduces to x = omega*Dinv*b, bitwise identical to the general form.
//
//amg:hotpath
func (h *Hierarchy) jacobi(l *Level, sweeps int, xZero bool) {
	n := l.A.Rows
	omega := jacobiDamping
	x, xn := l.x, l.d
	for s := 0; s < sweeps; s++ {
		// src/dst are loop-local copies: the closures below must not
		// capture the reassigned x/xn, which would box them on the heap
		// even on the closure-free serial path.
		src, dst := x, xn
		if xZero && s == 0 {
			if h.rt.Serial(n) {
				jacobiZeroRange(l, omega, dst, 0, n)
			} else {
				h.rt.For(n, func(lo, hi int) { jacobiZeroRange(l, omega, dst, lo, hi) })
			}
		} else {
			l.op.JacobiSweep(h.rt, l.b, l.dinv, omega, src, dst)
		}
		x, xn = xn, x
	}
	if sweeps%2 == 1 {
		// The final iterate landed in the scratch buffer; swap the level's
		// slice headers so l.x names it (both are level-sized scratch).
		l.x, l.d = x, xn
	}
}

// jacobiZeroRange is the first pre-smoothing sweep with a zero iterate:
// dst = omega*Dinv*b without touching A.
//
//amg:hotpath
func jacobiZeroRange(l *Level, omega float64, dst []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = omega * l.dinv[i] * l.b[i]
	}
}
