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
// numeric phase — non-finite entries, values outside the float32 range
// of an f32 finest level, a zero or missing diagonal, a diagonal sign
// flip on Refresh. These are properties of the submitted values, not of
// the solver: no retry or escalation can fix them, so callers (the
// serve escalation ladder in particular) can classify them with
// errors.Is and fail fast instead of re-solving.
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

const (
	// SmootherJacobi is damped Jacobi, the paper's Table V setup.
	SmootherJacobi Smoother = iota
	// SmootherChebyshev is a Chebyshev polynomial smoother (the common
	// MueLu alternative; an extension beyond the paper's configuration).
	SmootherChebyshev
	// SmootherPointSGS relaxes with point multicolor symmetric
	// Gauss-Seidel (§III-C), set up per level during Build.
	SmootherPointSGS
	// SmootherClusterSGS relaxes with cluster multicolor symmetric
	// Gauss-Seidel (Algorithm 4), clusters from each level's aggregation.
	SmootherClusterSGS
)

// Options configures hierarchy construction. Zero values select the
// defaults noted on each field.
type Options struct {
	// Aggregate selects the aggregation scheme; default is Algorithm 3
	// (coarsen.MIS2Aggregation).
	Aggregate AggregateFunc
	// MaxLevels caps the hierarchy depth (default 10).
	MaxLevels int
	// MinCoarseSize stops coarsening once a level is this small
	// (default 200); that level is solved directly.
	MinCoarseSize int
	// UnsmoothedProlongator disables prolongator smoothing (plain
	// aggregation AMG instead of SA-AMG).
	UnsmoothedProlongator bool
	// JacobiDamping is the damping factor for the level smoother
	// (default 2/3).
	JacobiDamping float64
	// PreSweeps and PostSweeps are the smoothing sweep counts per
	// V-cycle (default 2 and 2: "2 sweeps of the Jacobi method" as in
	// Table V's setup).
	PreSweeps, PostSweeps int
	// Smoother selects the relaxation method (default SmootherJacobi).
	Smoother Smoother
	// ChebyshevDegree is the polynomial degree when Smoother is
	// SmootherChebyshev (default 2). PreSweeps/PostSweeps then count
	// polynomial applications.
	ChebyshevDegree int
	// ChebyshevRatio is the eigenvalue interval ratio
	// lambda_max / lambda_min targeted by the polynomial (default 20, as
	// in MueLu).
	ChebyshevRatio float64
	// Format selects the storage layout of each level's operator for the
	// apply-side kernels (V-cycle residuals, Jacobi/Chebyshev sweeps).
	// The default FormatAuto converts large regular levels (fine mesh
	// Laplacians) to SELL-C-sigma and keeps small or irregular levels
	// (coarse Galerkin operators) on CSR; the setup-side SpGEMM plans
	// always stay on CSR, as does the coarsest level (solved densely, its
	// operator is never applied). Formats are bit-compatible: results
	// never depend on the choice.
	Format sparse.Format
	// SellSigma is the SELL-C-sigma sort scope (0 = the sparse package
	// default; any other value must be a positive multiple of the chunk
	// size and is validated under every Format, so a configuration typo
	// fails fast — see sparse.CheckSigma). The scope itself only takes
	// effect when a level converts to SELL.
	SellSigma int
	// Precision selects the value storage width of the apply-side level
	// operators (and the prolongator/restriction transfer kernels):
	// PrecisionF64 (default) stores everything in float64; PrecisionF32
	// stores f32 values on every level; PrecisionAuto keeps the finest
	// level f64 and stores f32 below it. The setup side — diagonals,
	// spectral-radius estimates, SpGEMM plan replays, the dense coarsest
	// solve — always computes in float64 from the CSR matrices, and every
	// f32 kernel accumulates in float64, so each precision is bitwise
	// deterministic across formats and worker counts. See DESIGN.md
	// ("Mixed precision").
	Precision sparse.Precision
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
}

// levelPrecision resolves the Precision policy for one level's
// apply-side operator: PrecisionAuto keeps the finest level (the one
// whose residual feeds convergence detection) at full precision and
// stores f32 below it.
func (o Options) levelPrecision(level int) sparse.Precision {
	switch o.Precision {
	case sparse.PrecisionF32:
		return sparse.PrecisionF32
	case sparse.PrecisionAuto:
		if level > 0 {
			return sparse.PrecisionF32
		}
	}
	return sparse.PrecisionF64
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
	if o.JacobiDamping == 0 {
		o.JacobiDamping = 2.0 / 3.0
	}
	if o.PreSweeps == 0 {
		o.PreSweeps = 2
	}
	if o.PostSweeps == 0 {
		o.PostSweeps = 2
	}
	if o.ChebyshevDegree <= 0 {
		o.ChebyshevDegree = 2
	}
	if o.ChebyshevRatio <= 1 {
		o.ChebyshevRatio = 20
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
	// op is the apply-side view of A in the level's chosen format and
	// precision (A itself for f64 CSR; a SELL/CSR32/SELL32 conversion
	// otherwise). The setup side (plan replays, graph extraction) always
	// works on the CSR A.
	op sparse.Operator
	// fill is non-nil when op caches values (SELL, CSR32, SELL32); the
	// numeric phase refreshes them through the cached entry schedule.
	fill sparse.ValueFiller
	// pop/rop are the apply-side views of P and R used by the V-cycle's
	// transfer kernels (P and R themselves at full precision; CSR32
	// conversions when the coarse side of the transfer is f32), with
	// pFill/rFill their refresh surfaces.
	pop, rop     sparse.Operator
	pFill, rFill sparse.ValueFiller
	// rho is the estimated spectral radius of D^{-1}A on this level,
	// used by prolongator smoothing and the Chebyshev smoother.
	rho float64
	// gsOp is the multicolor Gauss-Seidel operator when an SGS smoother
	// is selected (nil otherwise).
	gsOp *gs.Multicolor
	// Scratch vectors sized to this level.
	x, b, r, d []float64
}

// levelPlan holds the cached symbolic state of one level's setup: the
// tentative prolongator (whose values depend only on aggregate sizes,
// i.e. on the pattern), the SpGEMM plans for the smoothed prolongator,
// its transpose, and the Galerkin product, and — for the cluster-SGS
// smoother — the level's cluster aggregation. Everything here is a pure
// function of the fine matrix's sparsity pattern, so BuildNumeric and
// Refresh replay it for any same-pattern values.
type levelPlan struct {
	p0     *sparse.Matrix
	smooth *sparse.SmoothPlan
	trans  *sparse.TransposePlan
	rap    *sparse.RAPPlan
	sgsAgg *coarsen.Aggregation
}

// Hierarchy is a built SA-AMG preconditioner. It implements
// krylov.Preconditioner via Precondition (one V-cycle, zero initial
// guess).
//
// Concurrency: a Hierarchy is single-caller mutable state — Precondition,
// Solve, BuildNumeric, and Refresh all write the level scratch vectors
// (and the latter two the level operators), so no two of them may run
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
	// the levels half-refreshed, so Precondition and Solve refuse to run
	// until a later BuildNumeric or Refresh succeeds. Pre-mutation
	// rejections (pattern mismatch, non-finite values, zero/missing/
	// sign-flipped fine diagonal — see validateValues) leave validity
	// untouched.
	valid bool
	// solveR is the fine-level residual scratch of Solve, preallocated
	// so stationary iterations allocate nothing.
	solveR []float64
}

// addInto computes x += d elementwise.
//
//amg:hotpath
func addInto(rt *par.Runtime, x, d []float64) {
	n := len(x)
	if rt.Serial(n) {
		for i := 0; i < n; i++ {
			x[i] += d[i]
		}
		return
	}
	rt.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] += d[i]
		}
	})
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
	if err := h.BuildNumericCtx(ctx, a); err != nil {
		return nil, err
	}
	return h, nil
}

// BuildSymbolic runs the pattern-dependent half of setup for SPD matrix
// a: level graphs, aggregation, the tentative prolongator P0 (whose
// values are a function of aggregate sizes, i.e. of the pattern alone),
// the SpGEMM plans for prolongator smoothing / transposition / the
// Galerkin product, smoother cluster aggregations, and all level
// storage. The returned hierarchy is not usable until BuildNumeric fills
// in the values; a's values are read only by the initial Validate.
func BuildSymbolic(a *sparse.Matrix, opt Options) (*Hierarchy, error) {
	return BuildSymbolicCtx(nil, a, opt)
}

// BuildSymbolicCtx is BuildSymbolic with cooperative cancellation,
// checked once per level before that level's aggregation and plan
// construction. ctx may be nil (never cancels).
func BuildSymbolicCtx(ctx context.Context, a *sparse.Matrix, opt Options) (*Hierarchy, error) {
	opt = opt.withDefaults()
	if a.Rows != a.Cols {
		return nil, errors.New("amg: matrix must be square")
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("amg: invalid matrix: %w", err)
	}
	rt := par.New(opt.Threads)
	h := &Hierarchy{
		opt: opt, rt: rt,
		fing: hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col),
	}
	h.diagPos = make([]int, a.Rows)
	for i := 0; i < a.Rows; i++ {
		h.diagPos[i] = -1
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if int(a.Col[p]) == i {
				h.diagPos[i] = p
				break
			}
		}
	}

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
		if opt.Smoother == SmootherClusterSGS {
			agg := coarsen.MIS2Aggregation(cur.GraphWith(rt), coarsen.Options{Threads: opt.Threads})
			lp.sgsAgg = &agg
		}
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

		// Choose the level's apply-side operator format and precision —
		// only now that the level is known not to be the coarsest (the
		// coarsest level is solved densely, its op never applied, so
		// converting it would be pure waste). The conversions are
		// pattern-only here (values land in BuildNumeric); the SELL row
		// sort and the value-replay entry schedules are part of the
		// symbolic state.
		op, err := sparse.NewOperatorPrec(cur, opt.Format, opt.SellSigma, opt.levelPrecision(level))
		if err != nil {
			return nil, fmt.Errorf("amg: level %d operator format: %w", level, err)
		}
		l.op = op
		if f, ok := op.(sparse.ValueFiller); ok {
			l.fill = f
		}

		p := coarsen.Prolongator(agg)
		if !opt.UnsmoothedProlongator {
			sp, err := sparse.PlanSmoothProlongator(rt, cur, p)
			if err != nil {
				return nil, fmt.Errorf("amg: level %d prolongator smoothing: %w", level, err)
			}
			lp.p0, lp.smooth = p, sp
			p = sp.NewMatrix()
		}
		lp.trans = sparse.PlanTranspose(rt, p)
		r := lp.trans.NewMatrix()
		rp, err := sparse.PlanRAP(rt, r, cur, p)
		if err != nil {
			return nil, fmt.Errorf("amg: level %d Galerkin product: %w", level, err)
		}
		lp.rap = rp
		l.P, l.R = p, r
		// The transfer kernels (restriction SpMV, prolongation SpMVAdd)
		// follow the precision of the coarse side they move data to and
		// from: under PrecisionAuto the fine level's residual stays f64
		// but the traffic into the f32 coarse hierarchy is f32.
		l.pop, l.rop = p, r
		if opt.levelPrecision(level+1) == sparse.PrecisionF32 {
			pop, err := sparse.NewCSR32(p)
			if err != nil {
				return nil, fmt.Errorf("amg: level %d prolongator precision: %w", level, err)
			}
			rop, err := sparse.NewCSR32(r)
			if err != nil {
				return nil, fmt.Errorf("amg: level %d restriction precision: %w", level, err)
			}
			l.pop, l.rop = pop, rop
			l.pFill, l.rFill = pop, rop
		}
		cur = rp.NewMatrix()
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
// spectral-radius estimates, smoother operators, the plan replays for
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
// The first Refresh after a build also builds each Galerkin product's
// gather schedule (the build's own numeric pass ran on mark/acc and
// kept none) and allocates for it once. From then on, with the default
// Jacobi (or Chebyshev) smoother a Refresh performs zero heap
// allocations; the Gauss-Seidel smoothers rebuild their color-set
// operators and allocate during that rebuild.
//
// All foreseeable rejections happen before any level state is touched —
// pattern mismatch, non-finite values, and a zero, missing, or
// sign-flipped fine diagonal are validated up front (see validateValues)
// — so a rejected Refresh leaves the previous operator fully usable. An
// error during the numeric replay itself (a zero diagonal surfacing only
// on a coarse Galerkin level, a degenerate spectral radius) still leaves
// the levels half-refreshed: the hierarchy is invalidated (Valid reports
// false) and Precondition/Solve panic until a subsequent Refresh or
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
// state, before the replay mutates anything: non-finite entries, rows
// whose diagonal is zero or absent (every level diagonal inversion and
// smoother needs it), and — with checkSign, the Refresh contract —
// fine diagonal entries whose sign flipped relative to the current
// operator, the classic symptom of a corrupted or mis-assembled
// re-setup matrix (an SPD operator turning indefinite). Catching all of
// these up front is what lets a rejected Refresh leave the previous
// operator fully usable. checkSign must only be set when the hierarchy
// holds a valid numeric state (dinv is read as the previous diagonal's
// sign).
func (h *Hierarchy) validateValues(a *sparse.Matrix, checkSign bool) error {
	for p, v := range a.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite value at entry %d", ErrBadValues, p)
		}
	}
	// An f32 finest level additionally needs every fine value inside the
	// float32 range; checking here (not mid-replay) keeps overflow a
	// pre-mutation rejection with the previous operator still serving.
	// Coarse-level or smoothed-prolongator values derived out of range
	// can only surface during the replay and invalidate like any other
	// mid-replay failure.
	if h.opt.levelPrecision(0) == sparse.PrecisionF32 {
		if err := sparse.CheckF32Range(a.Val); err != nil {
			return fmt.Errorf("%w: %w", ErrBadValues, err)
		}
	}
	prev := h.Levels[0].dinv // same sign as the previous diagonal (it is its inverse)
	for i, p := range h.diagPos {
		diag := 0.0
		if p >= 0 {
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
		// Refresh the level's apply-side operator: value-caching formats
		// (SELL, CSR32, SELL32) gather the new values through their cached
		// entry schedules; plain f64 CSR levels just re-point (the fine
		// level's A was swapped above).
		if l.fill != nil {
			if err := l.fill.FillValues(cur); err != nil {
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
		// The power iteration borrows the level's solve scratch (fully
		// overwritten before any solve reads it).
		l.rho = estimateSpectralRadius(rt, cur, l.dinv, 15, l.x, l.r)
		lp := h.plans[level]
		switch h.opt.Smoother {
		case SmootherPointSGS:
			op, err := gs.NewPoint(cur, h.opt.Threads)
			if err != nil {
				return fmt.Errorf("amg: level %d point SGS setup: %w", level, err)
			}
			l.gsOp = op
		case SmootherClusterSGS:
			op, err := gs.NewCluster(cur, *lp.sgsAgg, h.opt.Threads)
			if err != nil {
				return fmt.Errorf("amg: level %d cluster SGS setup: %w", level, err)
			}
			l.gsOp = op
		}
		if lp.rap == nil {
			break // coarsest level
		}
		if lp.smooth != nil {
			if l.rho <= 0 {
				// The fused seed build falls back to the unsmoothed P0
				// here, which would change the cached pattern; it can only
				// occur for degenerate (all-cancelling) operators.
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
		}
		if err := lp.trans.Replay(rt, l.P, l.R); err != nil {
			return fmt.Errorf("amg: level %d restriction: %w", level, err)
		}
		// Refresh the f32 transfer views now that P and R carry their
		// final values for this numeric pass. Like any mid-replay failure,
		// an out-of-range smoothed value invalidates the hierarchy.
		if l.pFill != nil {
			if err := l.pFill.FillValues(l.P); err != nil {
				return fmt.Errorf("amg: level %d prolongator refresh: %w", level, err)
			}
			if err := l.rFill.FillValues(l.R); err != nil {
				return fmt.Errorf("amg: level %d restriction refresh: %w", level, err)
			}
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
// using caller-provided scratch vectors x and y (length n, fully
// overwritten), so repeated numeric setups allocate nothing.
func estimateSpectralRadius(rt *par.Runtime, a *sparse.Matrix, dinv []float64, iters int, x, y []float64) float64 {
	n := a.Rows
	x = x[:n]
	y = y[:n]
	for i := range x {
		// Deterministic pseudo-random start vector.
		x[i] = 0.5 + float64((i*2654435761)%1024)/2048.0
	}
	lambda := 0.0
	for it := 0; it < iters; it++ {
		a.SpMV(rt, x, y)
		norm := 0.0
		for i := range y {
			y[i] *= dinv[i]
			if v := y[i]; v > norm {
				norm = v
			} else if -v > norm {
				norm = -v
			}
		}
		if norm == 0 {
			return 0
		}
		lambda = norm
		inv := 1 / norm
		for i := range y {
			x[i] = y[i] * inv
		}
	}
	return lambda
}

// Valid reports whether the hierarchy holds a usable numeric state:
// true after a successful BuildNumeric or Refresh, false before the
// first numeric pass and after a mid-replay numeric failure (in which
// case Precondition and Solve panic until a numeric pass succeeds).
// Pre-mutation rejections never change it.
func (h *Hierarchy) Valid() bool { return h.valid }

// NumLevels returns the hierarchy depth.
func (h *Hierarchy) NumLevels() int { return len(h.Levels) }

// Format reports the storage format of the level's apply-side operator.
func (l *Level) Format() sparse.Format {
	switch l.op.(type) {
	case *sparse.SELL, *sparse.SELL32:
		return sparse.FormatSELL
	}
	return sparse.FormatCSR
}

// Precision reports the value storage precision of the level's
// apply-side operator. The coarsest level reports f64 under every
// policy: it is solved by the dense f64 factorization and its operator
// is never applied.
func (l *Level) Precision() sparse.Precision {
	return sparse.OperatorPrecision(l.op)
}

// Precision reports the hierarchy's precision policy (the Options value
// it was built with; per-level resolution is Level.Precision).
func (h *Hierarchy) Precision() sparse.Precision { return h.opt.Precision }

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

// Solve runs stationary V-cycle iterations until the residual drops below
// tol*||b|| or maxIter cycles; mainly for tests and examples (use CG with
// Precondition for production solves).
func (h *Hierarchy) Solve(b, x []float64, tol float64, maxIter int) (int, float64) {
	h.checkValid()
	n := h.Levels[0].A.Rows
	if cap(h.solveR) < n {
		h.solveR = make([]float64, n)
	}
	r := h.solveR[:n]
	bnorm := norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	for it := 0; it < maxIter; it++ {
		h.Levels[0].A.SpMVResidual(h.rt, b, x, r)
		rel := norm2(r) / bnorm
		if rel < tol {
			return it, rel
		}
		copy(h.Levels[0].b, r)
		h.vcycle(0)
		addInto(h.rt, x, h.Levels[0].x)
	}
	h.Levels[0].A.SpMVResidual(h.rt, b, x, r)
	return maxIter, norm2(r) / bnorm
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
	l.rop.SpMV(h.rt, l.r, next.b)
	h.vcycle(level + 1)
	// Fused prolongation + correction: x += P e_c in one traversal,
	// handing the corrected iterate straight to the post-smoother.
	l.pop.SpMVAdd(h.rt, next.x, l.x)
	h.smooth(l, h.opt.PostSweeps, false)
}

// smooth dispatches to the configured relaxation method. xZero tells the
// smoother the iterate is exactly zero on entry (the pre-smoothing
// position of the V-cycle), enabling the first-sweep shortcut.
//
//amg:hotpath
func (h *Hierarchy) smooth(l *Level, sweeps int, xZero bool) {
	switch h.opt.Smoother {
	case SmootherChebyshev:
		for s := 0; s < sweeps; s++ {
			h.chebyshev(l)
		}
	case SmootherPointSGS, SmootherClusterSGS:
		l.gsOp.Apply(l.b, l.x, sweeps, true)
	default:
		h.jacobi(l, sweeps, xZero)
	}
}

// chebyshev applies one Chebyshev polynomial of the configured degree to
// l.A x = l.b, updating l.x in place. The polynomial targets the interval
// [rho/ratio, 1.1*rho] of D^{-1}A eigenvalues, as in MueLu/Ifpack2.
//
//amg:hotpath
func (h *Hierarchy) chebyshev(l *Level) {
	n := l.A.Rows
	rt := h.rt
	lmax := 1.1 * l.rho
	lmin := l.rho / h.opt.ChebyshevRatio
	theta := (lmax + lmin) / 2
	delta := (lmax - lmin) / 2
	sigma := theta / delta
	rhoOld := 1 / sigma

	// r = b - A x ; d = Dinv r / theta
	l.op.SpMV(rt, l.x, l.r)
	if rt.Serial(n) {
		chebInitRange(l, theta, 0, n)
	} else {
		rt.For(n, func(lo, hi int) { chebInitRange(l, theta, lo, hi) })
	}
	for k := 1; k < h.opt.ChebyshevDegree; k++ {
		addInto(rt, l.x, l.d)
		// Recompute the residual against the updated iterate (one extra
		// SpMV per degree, robust against drift).
		l.op.SpMV(rt, l.x, l.r)
		rhoNew := 1 / (2*sigma - rhoOld)
		coef1 := rhoNew * rhoOld
		coef2 := 2 * rhoNew / delta
		if rt.Serial(n) {
			chebStepRange(l, coef1, coef2, 0, n)
		} else {
			rt.For(n, func(lo, hi int) { chebStepRange(l, coef1, coef2, lo, hi) })
		}
		rhoOld = rhoNew
	}
	addInto(rt, l.x, l.d)
}

//amg:hotpath
func chebInitRange(l *Level, theta float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		l.r[i] = l.b[i] - l.r[i]
		l.d[i] = l.dinv[i] * l.r[i] / theta
	}
}

//amg:hotpath
func chebStepRange(l *Level, coef1, coef2 float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r := l.b[i] - l.r[i]
		l.d[i] = coef1*l.d[i] + coef2*l.dinv[i]*r
	}
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
	omega := h.opt.JacobiDamping
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

//amg:hotpath
func norm2(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}
