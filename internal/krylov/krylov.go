// Package krylov provides the iterative solvers used by the paper's
// solver experiments: preconditioned conjugate gradient (Table V) and
// preconditioned restarted GMRES (Table VI).
//
// Concurrency: the solver functions are stateless between the operator,
// the vectors, and the workspace they are handed — concurrent solves
// are safe exactly when those are not shared: operators are read-only
// (safe to share), but each concurrent solve needs its own b/x vectors,
// its own Workspace, and a preconditioner that is either concurrency-
// safe itself (Identity, Jacobi) or externally serialized (an AMG
// hierarchy). internal/serve packages this contract behind a service.
//
//amg:deterministic
package krylov

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// Preconditioner applies z = M^{-1} r. Implementations must not modify r.
type Preconditioner interface {
	Precondition(r, z []float64)
}

// BatchPreconditioner is implemented by preconditioners that can apply
// M^{-1} to k residual columns stored in the interleaved multi-RHS
// layout (the k values of row i contiguous at [i*k : (i+1)*k]) in one
// pass. CGBatchCtx uses it when available; other preconditioners are
// applied column by column through de-interleaving scratch.
type BatchPreconditioner interface {
	PreconditionBatch(r, z []float64, k int)
}

// identityPrec is the unpreconditioned fallback.
type identityPrec struct{}

func (identityPrec) Precondition(r, z []float64) { copy(z, r) }

func (identityPrec) PreconditionBatch(r, z []float64, k int) { copy(z, r) }

// Identity returns the no-op preconditioner.
func Identity() Preconditioner { return identityPrec{} }

// Jacobi returns the diagonal (Jacobi) preconditioner for a, the simplest
// baseline between no preconditioning and the structured methods.
// It returns an error if any diagonal entry is zero.
func Jacobi(a sparse.Operator) (Preconditioner, error) {
	rows, _ := a.Dims()
	dinv := make([]float64, rows)
	a.DiagonalInto(par.Default(), dinv)
	for i, v := range dinv {
		if v == 0 {
			return nil, fmt.Errorf("krylov: zero diagonal at row %d", i)
		}
		dinv[i] = 1 / v
	}
	return jacobiPrecond{dinv: dinv}, nil
}

type jacobiPrecond struct{ dinv []float64 }

func (j jacobiPrecond) Precondition(r, z []float64) {
	for i := range z {
		z[i] = j.dinv[i] * r[i]
	}
}

func (j jacobiPrecond) PreconditionBatch(r, z []float64, k int) {
	for i, d := range j.dinv {
		rb := r[i*k : i*k+k]
		zb := z[i*k : i*k+k]
		for q, v := range rb {
			zb[q] = d * v
		}
	}
}

// Stats reports the outcome of a solve.
type Stats struct {
	// Iterations performed (matrix-vector products for CG; inner
	// iterations for GMRES).
	Iterations int
	// RelResidual is the final relative residual ||b - Ax|| / ||b||.
	RelResidual float64
	// Converged reports whether the tolerance was met: the recomputed
	// true residual is below tol, or the iteration's residual estimate
	// stopped below tol and the true residual stays under the
	// false-convergence limit (a larger disagreement is a classified
	// ErrDiverged failure, not a converged solve; see
	// falseConvergenceLimit).
	Converged bool
}

// ErrNotConverged is wrapped by solvers that hit the iteration limit.
var ErrNotConverged = errors.New("krylov: did not converge")

// ErrCanceled is wrapped by the *Ctx solvers when their context is
// canceled mid-solve. The returned error also wraps the context's cause
// (context.Canceled or context.DeadlineExceeded), so callers can use
// errors.Is against either sentinel. On cancellation x holds the current
// iterate — a partial, unconverged solution — and Stats reports the
// iteration count and the cheapest available residual estimate (the
// recurrence residual; no extra matrix-vector product is spent on a
// result nobody wants).
var ErrCanceled = errors.New("krylov: solve canceled")

// ctxDone reports the context's cancellation error, treating nil as
// context.Background(). The check is one mutex-free load for the
// background context and one short mutex hold for a real cancel context —
// invisible next to the matrix traversal every iteration performs.
func ctxDone(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cancelErr builds the canceled-solve error for a solver that stopped
// after iters iterations with relative recurrence residual rel.
func cancelErr(ctx context.Context, name string, iters int, rel float64) error {
	return fmt.Errorf("%w: %s stopped after %d iterations (recurrence relres %.3e): %w",
		ErrCanceled, name, iters, rel, context.Cause(ctx))
}

// dot computes the inner product with a 4-way unrolled dual-accumulator
// loop. The summation order is a fixed function of the vector length, so
// results are identical for every worker count.
//
//amg:hotpath
func dot(a, b []float64) float64 {
	var s0, s1 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i]*b[i] + a[i+1]*b[i+1]
		s1 += a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1
}

//amg:hotpath
func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// axpy computes y += alpha*x.
//
//amg:hotpath
func axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Workspace holds the scratch vectors of CGCtx, CGBatchCtx and GMRESCtx
// so that repeated solves allocate nothing. A zero Workspace is ready
// for use; buffers grow on demand and are retained between solves.
// Every solve re-slices all scratch to exactly the system size, so a
// workspace may be reused freely across systems of different sizes:
// results are bitwise identical to a fresh workspace. Not safe for
// concurrent use.
type Workspace struct {
	r, z, p, ap []float64
	// GMRES state (allocated only when GMRES is used).
	v       [][]float64
	h       [][]float64
	cs, sn  []float64
	s, y    []float64
	zb      []float64
	restart int
	// CGBatch state: per-column scalar recurrences, active flags and
	// stats, and two column-length buffers for de-interleaving through
	// generic preconditioners.
	scal   []float64
	act    []bool
	stats  []Stats
	rc, zc []float64
	// Per-column health-guard state (allocated only when CGBatchCtx
	// runs with a non-nil *Health).
	guard []guardState
}

// NewWorkspace returns a Workspace pre-sized for systems of n unknowns.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensureCG(n)
	return w
}

// grow returns s resized to length n, reusing capacity when possible.
func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func (w *Workspace) ensureCG(n int) {
	w.r = grow(w.r, n)
	w.z = grow(w.z, n)
	w.p = grow(w.p, n)
	w.ap = grow(w.ap, n)
}

func (w *Workspace) ensureGMRES(n, restart int) {
	w.ensureCG(n) // r, z, ap (as the w vector) are shared
	if w.restart < restart || len(w.v) == 0 {
		w.v = make([][]float64, restart+1)
		w.h = make([][]float64, restart+1)
		for i := range w.h {
			w.h[i] = make([]float64, restart)
		}
		w.cs = make([]float64, restart)
		w.sn = make([]float64, restart)
		w.s = make([]float64, restart+1)
		w.y = make([]float64, restart)
		w.restart = restart
	}
	// Slice every basis vector to exactly n: a workspace retained from a
	// larger system must never hand over-length scratch (with stale tail
	// values) to the Arnoldi kernels.
	for i := range w.v {
		w.v[i] = grow(w.v[i], n)
	}
	w.zb = grow(w.zb, n)
}

// ensureBatch sizes the workspace for a k-wide interleaved batch solve
// of n unknowns: the CG vectors hold n*k values, scal carries the six
// per-column scalar recurrences, and rc/zc are the de-interleaving
// buffers for non-batch preconditioners.
func (w *Workspace) ensureBatch(n, k int) {
	w.r = grow(w.r, n*k)
	w.z = grow(w.z, n*k)
	w.p = grow(w.p, n*k)
	w.ap = grow(w.ap, n*k)
	w.scal = grow(w.scal, 6*k)
	w.rc = grow(w.rc, n)
	w.zc = grow(w.zc, n)
	if cap(w.act) >= k {
		w.act = w.act[:k]
	} else {
		w.act = make([]bool, k)
	}
	if cap(w.stats) >= k {
		w.stats = w.stats[:k]
	} else {
		w.stats = make([]Stats, k)
	}
}

// ensureGuard sizes and resets the per-column guard state for a k-wide
// guarded batch solve.
func (w *Workspace) ensureGuard(k int) {
	if cap(w.guard) >= k {
		w.guard = w.guard[:k]
	} else {
		w.guard = make([]guardState, k)
	}
	for j := range w.guard {
		w.guard[j] = guardInit()
	}
}

// Options configures one solve of CGCtx, GMRESCtx or CGBatchCtx. Every
// field's zero value keeps its documented default, so callers set only
// the fields they need.
type Options struct {
	// Tol is the relative residual tolerance: a solve stops once its
	// residual drops below Tol*||b||.
	Tol float64
	// MaxIter bounds the iterations (matrix-vector products for CG,
	// inner iterations for GMRES). MaxIter <= 0 reports the initial
	// residual without touching x.
	MaxIter int
	// M is the preconditioner; nil means Identity().
	M Preconditioner
	// Work holds the solver's scratch vectors; repeated solves through
	// one Workspace perform no allocations. nil allocates a temporary
	// workspace.
	Work *Workspace
	// Health is the per-iteration health guard; nil means no guard.
	Health *Health
}

// CGCtx solves A x = b for SPD A with the preconditioned conjugate
// gradient method. x holds the initial guess on entry and the solution
// on exit. Iterations stop when the recurrence residual drops below
// o.Tol*||b|| or o.MaxIter is reached; Stats reports the true final
// residual. a is any operator format (CSR or SELL); formats produce
// bit-identical kernels, so the solve trajectory is independent of the
// format choice.
//
// The context is checked once before the setup products and at the top
// of every iteration, so a canceled caller stops paying for matrix
// traversals within one iteration. Cancellation returns an error
// wrapping ErrCanceled (and the context's cause); x then holds the
// partial iterate. A non-nil o.Health watches the per-iteration relative
// recurrence residual (the value the convergence test already computed)
// and aborts a non-finite, diverging, or stagnating solve with a
// classified error (ErrNonFinite, ErrDiverged, ErrStagnated); x then
// holds the iterate at abort. Neither check changes the arithmetic:
// with an uncanceled context and a healthy solve the result is bitwise
// identical to a solve with a nil context and no guard. ctx may be nil
// (treated as context.Background()).
func CGCtx(ctx context.Context, rt *par.Runtime, a sparse.Operator, b, x []float64, o Options) (Stats, error) {
	tol, maxIter, m, ws, hg := o.Tol, o.MaxIter, o.M, o.Work, o.Health
	n, _ := a.Dims()
	if len(b) != n || len(x) != n {
		return Stats{}, fmt.Errorf("krylov: CG size mismatch (n=%d, len(b)=%d, len(x)=%d)", n, len(b), len(x))
	}
	if m == nil {
		m = Identity()
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.ensureCG(n)
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap

	bnorm := norm2(b)
	if maxIter <= 0 {
		// Report the initial residual without touching x.
		nb := bnorm
		if nb == 0 {
			nb = 1
		}
		rel := finalResidualWith(rt, a, b, x, nb, r)
		st := Stats{Iterations: 0, RelResidual: rel, Converged: rel < tol}
		if !st.Converged {
			return st, fmt.Errorf("%w: CG after 0 iterations, relres %.3e", ErrNotConverged, rel)
		}
		return st, nil
	}
	if bnorm == 0 {
		// A zero right-hand side has the exact solution x = 0 (A is SPD,
		// hence nonsingular); iterating would divide by a zero residual
		// norm. Return it in 0 iterations.
		for i := range x {
			x[i] = 0
		}
		return Stats{Iterations: 0, RelResidual: 0, Converged: true}, nil
	}
	if err := ctxDone(ctx); err != nil {
		return Stats{}, cancelErr(ctx, "CG", 0, math.Inf(1))
	}

	a.SpMV(rt, x, r)
	// rr accumulates ||r||^2 with a single accumulator in index order —
	// a fixed summation order, so convergence behavior is identical for
	// every worker count — fused into the vector updates to save a pass.
	rr := 0.0
	for i := range r {
		ri := b[i] - r[i]
		r[i] = ri
		rr += ri * ri
	}
	m.Precondition(r, z)
	copy(p, z)
	rz := dot(r, z)

	iters := 0
	met := false
	gst := guardInit()
	for ; iters < maxIter; iters++ {
		rel := math.Sqrt(rr) / bnorm
		if rel < tol {
			met = true
			break
		}
		if err := ctxDone(ctx); err != nil {
			return Stats{Iterations: iters, RelResidual: rel}, cancelErr(ctx, "CG", iters, rel)
		}
		if hg != nil {
			if herr := hg.check(&gst, "CG", -1, iters, rel); herr != nil {
				return Stats{Iterations: iters, RelResidual: rel}, herr
			}
		}
		a.SpMV(rt, p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			return Stats{Iterations: iters, RelResidual: rel},
				fmt.Errorf("%w: p^T A p = %g at iteration %d", ErrBreakdown, pap, iters)
		}
		alpha := rz / pap
		// Fused update of x and r with the residual norm of the new r
		// accumulated in the same pass (single accumulator, index order:
		// a fixed, scheduling-independent summation order).
		rr = 0
		for i := range r {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			rr += ri * ri
		}
		m.Precondition(r, z)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	rel := finalResidualWith(rt, a, b, x, bnorm, ap)
	if iters < maxIter {
		met = true // loop exited on the residual test
	}
	if met && tol > 0 && rel >= falseConvergenceLimit(tol) {
		return Stats{Iterations: iters, RelResidual: rel},
			fmt.Errorf("%w: CG false convergence at iteration %d: recurrence residual met tol %.1e but true relres is %.3e", ErrDiverged, iters, tol, rel)
	}
	st := Stats{Iterations: iters, RelResidual: rel, Converged: met || rel < tol}
	if !st.Converged {
		return st, fmt.Errorf("%w: CG after %d iterations, relres %.3e", ErrNotConverged, iters, rel)
	}
	return st, nil
}

// CGWith is CGCtx with positional arguments and a background context.
// It remains only because cmd/amgbench, which changes only together
// with the benchmark, compiles against it; delete it with the next
// benchmark change.
func CGWith(rt *par.Runtime, a sparse.Operator, b, x []float64, tol float64, maxIter int, m Preconditioner, ws *Workspace) (Stats, error) {
	return CGCtx(context.Background(), rt, a, b, x, Options{Tol: tol, MaxIter: maxIter, M: m, Work: ws})
}

// GMRESCtx solves A x = b with left-preconditioned restarted
// GMRES(restart); restart <= 0 selects 50, and restart is clamped to
// o.MaxIter. x holds the initial guess on entry and the solution on
// exit. The context is checked at the top of every inner (Arnoldi)
// iteration, and a non-nil o.Health watches the per-iteration
// recurrence residual estimate |s[k+1]|/||M^{-1}b||. On cancellation x
// holds the iterate of the last *completed* restart cycle — the
// in-progress cycle's correction is discarded, not applied half-built —
// and the reported residual is the recurrence estimate of that
// unfinished cycle; a guard abort behaves the same way (the unfinished
// cycle is discarded). With an uncanceled context and a healthy solve
// the result is bitwise identical to a solve with a nil context and no
// guard. ctx may be nil (treated as context.Background()).
func GMRESCtx(ctx context.Context, rt *par.Runtime, a sparse.Operator, b, x []float64, restart int, o Options) (Stats, error) {
	tol, maxIter, m, ws, hg := o.Tol, o.MaxIter, o.M, o.Work, o.Health
	n, _ := a.Dims()
	if len(b) != n || len(x) != n {
		return Stats{}, fmt.Errorf("krylov: GMRES size mismatch (n=%d, len(b)=%d, len(x)=%d)", n, len(b), len(x))
	}
	if m == nil {
		m = Identity()
	}
	if ws == nil {
		ws = &Workspace{}
	}
	bnorm := norm2(b)
	if maxIter <= 0 {
		// Report the initial residual without touching x. This runs
		// before the restart clamp and workspace sizing: clamping restart
		// to a non-positive maxIter would size the Arnoldi state with a
		// negative dimension.
		ws.ensureCG(n)
		nb := bnorm
		if nb == 0 {
			nb = 1
		}
		rel := finalResidualWith(rt, a, b, x, nb, ws.r)
		st := Stats{Iterations: 0, RelResidual: rel, Converged: rel < tol}
		if !st.Converged {
			return st, fmt.Errorf("%w: GMRES after 0 iterations, relres %.3e", ErrNotConverged, rel)
		}
		return st, nil
	}
	if restart <= 0 {
		restart = 50
	}
	if restart > maxIter {
		restart = maxIter
	}
	ws.ensureGMRES(n, restart)

	if bnorm == 0 {
		// Zero right-hand side: the solution is x = 0; iterating would
		// normalize a zero residual (beta = 0) into NaN basis vectors.
		for i := range x {
			x[i] = 0
		}
		return Stats{Iterations: 0, RelResidual: 0, Converged: true}, nil
	}

	// Preconditioned right-hand side norm for the stopping test.
	zb := ws.zb
	m.Precondition(b, zb)
	zbnorm := norm2(zb)
	if zbnorm == 0 {
		zbnorm = 1
	}

	r, z, w := ws.r, ws.z, ws.ap
	v := ws.v // Krylov basis
	h := ws.h // Hessenberg, h[i][j]
	cs, sn := ws.cs, ws.sn
	s, y := ws.s, ws.y

	totalIters := 0
	met := false
	gst := guardInit()
	for totalIters < maxIter {
		// r = M^{-1}(b - A x)
		a.SpMV(rt, x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		m.Precondition(r, z)
		beta := norm2(z)
		if beta == 0 || beta/zbnorm < tol {
			// beta == 0 means the residual is exactly zero: converged even
			// when tol == 0 (continuing would divide by beta).
			met = true
			break
		}
		inv := 1 / beta
		for i := range z {
			v[0][i] = z[i] * inv
		}
		for i := range s {
			s[i] = 0
		}
		s[0] = beta

		k := 0
		for ; k < restart && totalIters < maxIter; k++ {
			if err := ctxDone(ctx); err != nil {
				// Abandon the unfinished cycle: x still holds the iterate
				// from the last completed one (the correction is only
				// applied after the inner loop).
				rel := math.Abs(s[k]) / zbnorm
				return Stats{Iterations: totalIters, RelResidual: rel}, cancelErr(ctx, "GMRES", totalIters, rel)
			}
			totalIters++
			// w = M^{-1} A v_k
			a.SpMV(rt, v[k], w)
			m.Precondition(w, z)
			copy(w, z)
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h[i][k] = dot(w, v[i])
				axpy(-h[i][k], v[i], w)
			}
			h[k+1][k] = norm2(w)
			lucky := h[k+1][k] <= 1e-300
			if !lucky {
				inv := 1 / h[k+1][k]
				for i := range w {
					v[k+1][i] = w[i] * inv
				}
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			// New rotation to annihilate h[k+1][k].
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k], sn[k] = h[k][k]/denom, h[k+1][k]/denom
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			s[k+1] = -sn[k] * s[k]
			s[k] = cs[k] * s[k]
			if lucky {
				// Lucky breakdown: the Krylov subspace is exhausted and the
				// solution is exact in it. Continuing would read v[k+1],
				// which was never written this cycle — with a reused
				// workspace that is a stale basis vector from a previous
				// (possibly larger) solve.
				k++
				break
			}
			if math.Abs(s[k+1])/zbnorm < tol {
				k++
				break
			}
			if hg != nil {
				// The guard reads the recurrence estimate the stopping test
				// above already computed. On abort the unfinished cycle is
				// discarded, like cancellation: x keeps the iterate of the
				// last completed restart.
				rel := math.Abs(s[k+1]) / zbnorm
				if herr := hg.check(&gst, "GMRES", -1, totalIters, rel); herr != nil {
					return Stats{Iterations: totalIters, RelResidual: rel}, herr
				}
			}
		}
		// Solve the upper triangular system h y = s.
		for i := k - 1; i >= 0; i-- {
			y[i] = s[i]
			for j := i + 1; j < k; j++ {
				y[i] -= h[i][j] * y[j]
			}
			y[i] /= h[i][i]
		}
		for i := 0; i < k; i++ {
			axpy(y[i], v[i], x)
		}
		if k == 0 {
			break // stagnation
		}
	}
	rel := finalResidualWith(rt, a, b, x, bnorm, r)
	if met && tol > 0 && rel >= falseConvergenceLimit(tol) {
		return Stats{Iterations: totalIters, RelResidual: rel},
			fmt.Errorf("%w: GMRES false convergence at iteration %d: residual estimate met tol %.1e but true relres is %.3e", ErrDiverged, totalIters, tol, rel)
	}
	st := Stats{Iterations: totalIters, RelResidual: rel, Converged: met || rel < tol}
	if !st.Converged {
		return st, fmt.Errorf("%w: GMRES after %d iterations, relres %.3e", ErrNotConverged, totalIters, rel)
	}
	return st, nil
}

// preconditionBatch applies m to k interleaved columns, using the batch
// fast path when m implements BatchPreconditioner and column-by-column
// de-interleaving through rc/zc otherwise. In the de-interleave path a
// non-nil act skips frozen columns — their stale z only feeds a search
// direction whose alpha/beta are pinned to zero, so results are
// unchanged while an expensive preconditioner (an AMG V-cycle, say)
// runs once per live column instead of once per column. act must be nil
// on the first application, before frozen columns hold a finite z.
func preconditionBatch(m Preconditioner, r, z []float64, n, k int, rc, zc []float64, act []bool) {
	if bp, ok := m.(BatchPreconditioner); ok {
		bp.PreconditionBatch(r, z, k)
		return
	}
	for j := 0; j < k; j++ {
		if act != nil && !act[j] {
			continue
		}
		for i := 0; i < n; i++ {
			rc[i] = r[i*k+j]
		}
		m.Precondition(rc, zc)
		for i := 0; i < n; i++ {
			z[i*k+j] = zc[i]
		}
	}
}

// CGBatchCtx solves the k systems A x_j = b_j simultaneously with the
// preconditioned conjugate gradient method, sharing one SpMM traversal
// of A per iteration across all right-hand sides. b and x use the
// interleaved multi-RHS layout of sparse.SpMM (the k values of row i
// contiguous at [i*k : (i+1)*k]); x holds the initial guesses on entry
// and the solutions on exit. Each column runs its own scalar recurrence;
// a column that converges (or has a zero right-hand side, solved as
// x_j = 0 in 0 iterations) is frozen — its alpha and beta are pinned to
// zero so the shared vector updates become exact no-ops — while the
// remaining columns iterate. Deterministic for every worker count. The
// returned Stats slice (one entry per column) is owned by the workspace
// and overwritten by the next batch solve through it.
//
// The context is checked once before the setup products and at the top
// of every iteration. On cancellation every still-active column reports
// its iteration count and recurrence residual (Converged false), columns
// frozen earlier keep their recurrence result (like the breakdown path),
// and the error wraps ErrCanceled plus the context's cause. A non-nil
// o.Health watches each active column's relative recurrence residual; a
// column turning non-finite, divergent, or stagnant aborts the whole
// batch the way a breakdown does — all columns share the one operator,
// so the failure is a property of the system, not the column — with a
// classified error naming the first offending column. With an
// uncanceled context and a healthy solve the result is bitwise
// identical to a solve with a nil context and no guard. ctx may be nil
// (treated as context.Background()).
func CGBatchCtx(ctx context.Context, rt *par.Runtime, a sparse.Operator, b, x []float64, k int, o Options) ([]Stats, error) {
	tol, maxIter, m, ws, hg := o.Tol, o.MaxIter, o.M, o.Work, o.Health
	n, _ := a.Dims()
	if k <= 0 {
		return nil, fmt.Errorf("krylov: CGBatch needs k >= 1, got %d", k)
	}
	if len(b) != n*k || len(x) != n*k {
		return nil, fmt.Errorf("krylov: CGBatch size mismatch (n=%d, k=%d, len(b)=%d, len(x)=%d)", n, k, len(b), len(x))
	}
	if m == nil {
		m = Identity()
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.ensureBatch(n, k)
	if hg != nil {
		ws.ensureGuard(k)
	}
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap
	scal := ws.scal
	rr, rz := scal[0:k], scal[k:2*k]
	rzNew, alpha := scal[2*k:3*k], scal[3*k:4*k]
	bnorm, pap := scal[4*k:5*k], scal[5*k:6*k]
	act, stats := ws.act, ws.stats
	for j := 0; j < k; j++ {
		stats[j] = Stats{}
	}

	// Per-column ||b_j|| in one pass over the interleaved block (single
	// accumulator per column in index order: deterministic).
	for j := 0; j < k; j++ {
		bnorm[j] = 0
	}
	for i := 0; i < n; i++ {
		bb := b[i*k : i*k+k]
		for j, v := range bb {
			bnorm[j] += v * v
		}
	}
	for j := 0; j < k; j++ {
		bnorm[j] = math.Sqrt(bnorm[j])
	}

	if maxIter <= 0 {
		// Report the initial residuals without touching x.
		a.SpMM(rt, k, x, ap)
		failed, _ := batchFinalize(b, x, ap, bnorm, rr, stats, n, k, tol, act, false)
		if failed > 0 {
			return stats, fmt.Errorf("%w: CGBatch after 0 iterations, %d of %d columns above tol", ErrNotConverged, failed, k)
		}
		return stats, nil
	}

	nActive := k
	for j := 0; j < k; j++ {
		act[j] = true
		if bnorm[j] == 0 {
			// Zero right-hand side: exact solution x_j = 0 in 0 iterations
			// (zeroed before the residual pass so r_j and rr[j] come out
			// exactly zero and the column's recurrence is a no-op).
			for i := 0; i < n; i++ {
				x[i*k+j] = 0
			}
			act[j] = false
			stats[j] = Stats{Iterations: 0, RelResidual: 0, Converged: true}
			nActive--
		}
	}

	if err := ctxDone(ctx); err != nil {
		for j := 0; j < k; j++ {
			if act[j] {
				stats[j] = Stats{Iterations: 0, RelResidual: math.Inf(1)}
			}
		}
		return stats, cancelErr(ctx, "CGBatch", 0, math.Inf(1))
	}

	// r = b - A x with per-column rr in the same pass.
	a.SpMM(rt, k, x, r)
	for j := 0; j < k; j++ {
		rr[j] = 0
	}
	for i := 0; i < n; i++ {
		base := i * k
		rb := r[base : base+k]
		bb := b[base : base+k]
		for j := range rb {
			ri := bb[j] - rb[j]
			rb[j] = ri
			rr[j] += ri * ri
		}
	}
	preconditionBatch(m, r, z, n, k, ws.rc, ws.zc, nil)
	copy(p, z)
	for j := 0; j < k; j++ {
		rz[j] = 0
	}
	for i := 0; i < n; i++ {
		base := i * k
		rb := r[base : base+k]
		zb := z[base : base+k]
		for j := range rb {
			rz[j] += rb[j] * zb[j]
		}
	}

	iters := 0
	for ; iters < maxIter && nActive > 0; iters++ {
		for j := 0; j < k; j++ {
			if !act[j] {
				continue
			}
			rel := math.Sqrt(rr[j]) / bnorm[j]
			if rel < tol {
				act[j] = false
				stats[j].Iterations = iters
				nActive--
				continue
			}
			if hg != nil {
				if herr := hg.check(&ws.guard[j], "CGBatch", j, iters, rel); herr != nil {
					batchAbortStats(stats, act, rr, bnorm, iters, k)
					return stats, herr
				}
			}
		}
		if nActive == 0 {
			break
		}
		if err := ctxDone(ctx); err != nil {
			// Mirror the breakdown path: active columns report their
			// recurrence residual unconverged; columns frozen by the
			// convergence test keep their recurrence result.
			worst := 0.0
			for q := 0; q < k; q++ {
				if act[q] {
					stats[q].Iterations = iters
					stats[q].RelResidual = math.Sqrt(rr[q]) / bnorm[q]
					if stats[q].RelResidual > worst {
						worst = stats[q].RelResidual
					}
				} else if !stats[q].Converged {
					stats[q].RelResidual = math.Sqrt(rr[q]) / bnorm[q]
					stats[q].Converged = true
				}
			}
			return stats, cancelErr(ctx, "CGBatch", iters, worst)
		}
		a.SpMM(rt, k, p, ap)
		for j := 0; j < k; j++ {
			pap[j] = 0
		}
		for i := 0; i < n; i++ {
			base := i * k
			pb := p[base : base+k]
			apb := ap[base : base+k]
			for j := range pb {
				pap[j] += pb[j] * apb[j]
			}
		}
		for j := 0; j < k; j++ {
			if !act[j] {
				alpha[j] = 0
				continue
			}
			if pap[j] <= 0 {
				batchAbortStats(stats, act, rr, bnorm, iters, k)
				return stats, fmt.Errorf("%w: CGBatch column %d, p^T A p = %g at iteration %d", ErrBreakdown, j, pap[j], iters)
			}
			alpha[j] = rz[j] / pap[j]
		}
		// Fused x/r update with the new per-column residual norms; frozen
		// columns have alpha = 0, so their x and r are bit-identical
		// no-ops and rr stays below tolerance.
		for j := 0; j < k; j++ {
			rr[j] = 0
		}
		for i := 0; i < n; i++ {
			base := i * k
			xb := x[base : base+k]
			rb := r[base : base+k]
			pb := p[base : base+k]
			apb := ap[base : base+k]
			for j := range xb {
				xb[j] += alpha[j] * pb[j]
				ri := rb[j] - alpha[j]*apb[j]
				rb[j] = ri
				rr[j] += ri * ri
			}
		}
		preconditionBatch(m, r, z, n, k, ws.rc, ws.zc, act)
		for j := 0; j < k; j++ {
			rzNew[j] = 0
		}
		for i := 0; i < n; i++ {
			base := i * k
			rb := r[base : base+k]
			zb := z[base : base+k]
			for j := range rb {
				rzNew[j] += rb[j] * zb[j]
			}
		}
		// alpha doubles as beta for the direction update.
		for j := 0; j < k; j++ {
			if act[j] {
				alpha[j] = rzNew[j] / rz[j]
			} else {
				alpha[j] = 0
			}
			rz[j] = rzNew[j]
		}
		for i := 0; i < n; i++ {
			base := i * k
			pb := p[base : base+k]
			zb := z[base : base+k]
			for j := range pb {
				pb[j] = zb[j] + alpha[j]*pb[j]
			}
		}
	}
	for j := 0; j < k; j++ {
		if act[j] {
			stats[j].Iterations = iters
		}
	}

	// True final residuals per column.
	a.SpMM(rt, k, x, ap)
	failed, falseConv := batchFinalize(b, x, ap, bnorm, rr, stats, n, k, tol, act, true)
	if falseConv > 0 {
		return stats, fmt.Errorf("%w: CGBatch false convergence after %d iterations, %d of %d columns met tol %.1e in the recurrence but exceed the true-residual limit %.1e", ErrDiverged, iters, falseConv, k, tol, falseConvergenceLimit(tol))
	}
	if failed > 0 {
		return stats, fmt.Errorf("%w: CGBatch after %d iterations, %d of %d columns above tol", ErrNotConverged, iters, failed, k)
	}
	return stats, nil
}

// batchAbortStats fills the per-column stats of a batch solve that
// aborted mid-iteration (breakdown or health-guard trip): every
// still-active column reports its recurrence residual unconverged at
// the abort iteration; a column frozen earlier by the convergence test
// is reported converged with its recurrence residual (batchFinalize
// never runs on abort paths). Zero-RHS columns were finalized exactly
// and keep their stats.
func batchAbortStats(stats []Stats, act []bool, rr, bnorm []float64, iters, k int) {
	for q := 0; q < k; q++ {
		if act[q] {
			stats[q].Iterations = iters
			stats[q].RelResidual = math.Sqrt(rr[q]) / bnorm[q]
		} else if !stats[q].Converged {
			stats[q].RelResidual = math.Sqrt(rr[q]) / bnorm[q]
			stats[q].Converged = true
		}
	}
}

// batchFinalize fills per-column RelResidual and Converged from the
// product ax = A*x and returns the number of unconverged columns plus
// how many of those are false convergences. When metByRecurrence is
// true, a column whose recurrence already met the tolerance (act[j]
// false) counts as converged as long as the true residual is within
// falseConvergenceSlack of the tolerance, matching CG's Stats
// contract.
func batchFinalize(b, x, ax, bnorm, rr []float64, stats []Stats, n, k int, tol float64, act []bool, metByRecurrence bool) (int, int) {
	for j := 0; j < k; j++ {
		rr[j] = 0
	}
	for i := 0; i < n; i++ {
		base := i * k
		axb := ax[base : base+k]
		bb := b[base : base+k]
		for j := range axb {
			ri := bb[j] - axb[j]
			rr[j] += ri * ri
		}
	}
	failed, falseConv := 0, 0
	for j := 0; j < k; j++ {
		nb := bnorm[j]
		if nb == 0 {
			nb = 1
		}
		rel := math.Sqrt(rr[j]) / nb
		if metByRecurrence && stats[j].Converged {
			// Zero-RHS columns were finalized exactly; keep their stats.
			continue
		}
		stats[j].RelResidual = rel
		// A column frozen by the recurrence test is converged only while
		// the true residual stays under the false-convergence limit;
		// beyond it the recurrence has lied and the column is a failure,
		// not an answer.
		froze := metByRecurrence && !act[j]
		stats[j].Converged = rel < tol || (froze && (tol <= 0 || rel < falseConvergenceLimit(tol)))
		if !stats[j].Converged {
			failed++
			if froze {
				falseConv++
			}
		}
	}
	return failed, falseConv
}

// finalResidualWith computes ||b - Ax|| / bnorm using scratch as the
// residual buffer (its contents are overwritten).
func finalResidualWith(rt *par.Runtime, a sparse.Operator, b, x []float64, bnorm float64, scratch []float64) float64 {
	a.SpMV(rt, x, scratch)
	rr := 0.0
	for i := range scratch {
		ri := b[i] - scratch[i]
		rr += ri * ri
	}
	return math.Sqrt(rr) / bnorm
}
