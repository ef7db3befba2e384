// Package krylov provides the iterative solvers used by the paper's
// solver experiments: preconditioned conjugate gradient (Table V) and
// preconditioned restarted GMRES (Table VI). Each call solves one
// right-hand side; several right-hand sides against one operator are
// solved one call after another.
//
// Concurrency: the solver functions are stateless between the operator,
// the vectors, and the workspace they are handed — concurrent solves
// are safe exactly when those are not shared: operators are read-only
// (safe to share), but each concurrent solve needs its own b/x vectors,
// its own Workspace, and a preconditioner that is either concurrency-
// safe itself (the identity, Jacobi) or externally serialized (an AMG
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

// identityPrec is the unpreconditioned fallback for a nil Options.M.
type identityPrec struct{}

func (identityPrec) Precondition(r, z []float64) { copy(z, r) }

// Jacobi returns the diagonal (Jacobi) preconditioner for a, the simplest
// baseline between no preconditioning and the structured methods.
// The diagonal is a setup-side read of the CSR matrix. It returns an
// error if any diagonal entry is zero.
func Jacobi(a *sparse.Matrix) (Preconditioner, error) {
	dinv := make([]float64, a.Rows)
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

// Workspace holds the scratch vectors of CGCtx and GMRESCtx so that
// repeated solves allocate nothing. A zero Workspace is ready for use;
// buffers grow on demand and are retained between solves.
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

// Options configures one solve of CGCtx or GMRESCtx. Every field's
// zero value keeps its documented default, so callers set only the
// fields they need.
type Options struct {
	// Tol is the relative residual tolerance: a solve stops once its
	// residual drops below Tol*||b||.
	Tol float64
	// MaxIter bounds the iterations (matrix-vector products for CG,
	// inner iterations for GMRES). MaxIter <= 0 reports the initial
	// residual without touching x.
	MaxIter int
	// M is the preconditioner; nil means none (the identity).
	M Preconditioner
	// Work holds the solver's scratch vectors; repeated solves through
	// one Workspace perform no allocations. nil allocates a temporary
	// workspace.
	Work *Workspace
	// Health turns on the per-iteration health guard: a non-finite
	// residual, a residual 1e4 times the best seen for 5 iterations,
	// or 100 iterations without 0.1% relative progress abort the solve
	// with a classified error. The thresholds are fixed. false means
	// no guard.
	Health bool
}

// The four fused vector passes of CGCtx below each sum with one
// accumulator in row order, so a solve's bits are a fixed function of
// its inputs at every worker count. GMRES sums with dot instead.

// seqDot returns the dot product of a and b.
//
//amg:hotpath
func seqDot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// residualSq overwrites r with b - r and returns the squared norm of
// the result.
//
//amg:hotpath
func residualSq(b, r []float64) float64 {
	b = b[:len(r)]
	s := 0.0
	for i, v := range r {
		ri := b[i] - v
		r[i] = ri
		s += ri * ri
	}
	return s
}

// cgStep is the fused CG step x += alpha*p, r -= alpha*ap; it returns
// the squared norm of the new r.
//
//amg:hotpath
func cgStep(alpha float64, x, r, p, ap []float64) float64 {
	r, p, ap = r[:len(x)], p[:len(x)], ap[:len(x)]
	s := 0.0
	for i := range x {
		x[i] += alpha * p[i]
		ri := r[i] - alpha*ap[i]
		r[i] = ri
		s += ri * ri
	}
	return s
}

// cgDirection is the direction update p = z + beta*p.
//
//amg:hotpath
func cgDirection(beta float64, z, p []float64) {
	z = z[:len(p)]
	for i, v := range p {
		p[i] = z[i] + beta*v
	}
}

// CGCtx solves the SPD system A x = b with the preconditioned conjugate
// gradient method. x holds the initial guess on entry and the solution
// on exit; a is any operator format (CSR or SELL), and formats produce
// bit-identical kernels. The iteration stops once the recurrence
// residual drops below o.Tol*||b||, up to o.MaxIter iterations; Stats
// report the true final residual. A zero right-hand side is solved as
// x = 0 in 0 iterations. Deterministic for every worker count.
//
// The context is checked once before the setup products and at the top
// of every iteration. On cancellation x holds the partial iterate, Stats
// report the iteration count and the recurrence residual (+Inf before
// the first iteration), and the error wraps ErrCanceled plus the
// context's cause. The o.Health guard watches the relative recurrence
// residual and aborts a non-finite, divergent or stagnant solve with a
// classified error; p^T A p <= 0 aborts with ErrBreakdown. With an
// uncanceled context and a healthy solve the result is bitwise
// identical to a solve with a nil context and no guard. ctx may be nil
// (treated as context.Background()).
func CGCtx(ctx context.Context, rt *par.Runtime, a sparse.Operator, b, x []float64, o Options) (Stats, error) {
	tol, maxIter, m, ws := o.Tol, o.MaxIter, o.M, o.Work
	n, _ := a.Dims()
	if len(b) != n || len(x) != n {
		return Stats{}, fmt.Errorf("krylov: CG size mismatch (n=%d, len(b)=%d, len(x)=%d)", n, len(b), len(x))
	}
	if m == nil {
		m = identityPrec{}
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.ensureCG(n)
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap
	bnorm := math.Sqrt(seqDot(b, b))

	if maxIter <= 0 {
		// Report the initial residual without touching x.
		nb := bnorm
		if nb == 0 {
			nb = 1
		}
		return finish("CG", false, 0, tol, finalResidualWith(rt, a, b, x, nb, ap))
	}
	if bnorm == 0 {
		clear(x)
		return Stats{Iterations: 0, RelResidual: 0, Converged: true}, nil
	}
	if err := ctxDone(ctx); err != nil {
		return Stats{Iterations: 0, RelResidual: math.Inf(1)}, cancelErr(ctx, "CG", 0, math.Inf(1))
	}

	a.SpMV(rt, x, r)
	rr := residualSq(b, r)
	m.Precondition(r, z)
	copy(p, z)
	rz := seqDot(r, z)

	gst := guardInit()
	met := false
	iters := 0
	for ; iters < maxIter; iters++ {
		rel := math.Sqrt(rr) / bnorm
		if rel < tol {
			met = true
			break
		}
		if o.Health {
			if herr := gst.check("CG", iters, rel); herr != nil {
				return Stats{Iterations: iters, RelResidual: rel}, herr
			}
		}
		if err := ctxDone(ctx); err != nil {
			return Stats{Iterations: iters, RelResidual: rel}, cancelErr(ctx, "CG", iters, rel)
		}
		a.SpMV(rt, p, ap)
		pap := seqDot(p, ap)
		if pap <= 0 {
			return Stats{Iterations: iters, RelResidual: rel}, fmt.Errorf("%w: CG p^T A p = %g at iteration %d", ErrBreakdown, pap, iters)
		}
		rr = cgStep(rz/pap, x, r, p, ap)
		m.Precondition(r, z)
		rzNew := seqDot(r, z)
		cgDirection(rzNew/rz, z, p)
		rz = rzNew
	}

	return finish("CG", met, iters, tol, finalResidualWith(rt, a, b, x, bnorm, ap))
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
// iteration, and the o.Health guard watches the per-iteration
// recurrence residual estimate |s[k+1]|/||M^{-1}b||. On cancellation x
// holds the iterate of the last *completed* restart cycle — the
// in-progress cycle's correction is discarded, not applied half-built —
// and the reported residual is the recurrence estimate of that
// unfinished cycle; a guard abort behaves the same way (the unfinished
// cycle is discarded). With an uncanceled context and a healthy solve
// the result is bitwise identical to a solve with a nil context and no
// guard. ctx may be nil (treated as context.Background()).
func GMRESCtx(ctx context.Context, rt *par.Runtime, a sparse.Operator, b, x []float64, restart int, o Options) (Stats, error) {
	tol, maxIter, m, ws := o.Tol, o.MaxIter, o.M, o.Work
	n, _ := a.Dims()
	if len(b) != n || len(x) != n {
		return Stats{}, fmt.Errorf("krylov: GMRES size mismatch (n=%d, len(b)=%d, len(x)=%d)", n, len(b), len(x))
	}
	if m == nil {
		m = identityPrec{}
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
		return finish("GMRES", false, 0, tol, finalResidualWith(rt, a, b, x, nb, ws.r))
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
			if o.Health {
				// The guard reads the recurrence estimate the stopping test
				// above already computed. On abort the unfinished cycle is
				// discarded, like cancellation: x keeps the iterate of the
				// last completed restart.
				rel := math.Abs(s[k+1]) / zbnorm
				if herr := gst.check("GMRES", totalIters, rel); herr != nil {
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
	return finish("GMRES", met, totalIters, tol, finalResidualWith(rt, a, b, x, bnorm, r))
}

// finish classifies the end of a solve named name that ran iters
// iterations and left the recomputed true relative residual rel; met
// reports that the iteration's own residual estimate passed tol. An
// estimate that passed while the true residual sits at or above
// falseConvergenceLimit(tol) is false convergence (ErrDiverged); a
// true residual at or above tol with an estimate that never passed is
// ErrNotConverged.
func finish(name string, met bool, iters int, tol, rel float64) (Stats, error) {
	if met && tol > 0 && rel >= falseConvergenceLimit(tol) {
		return Stats{Iterations: iters, RelResidual: rel},
			fmt.Errorf("%w: %s false convergence at iteration %d: residual estimate met tol %.1e but true relres is %.3e", ErrDiverged, name, iters, tol, rel)
	}
	st := Stats{Iterations: iters, RelResidual: rel, Converged: met || rel < tol}
	if !st.Converged {
		return st, fmt.Errorf("%w: %s after %d iterations, relres %.3e", ErrNotConverged, name, iters, rel)
	}
	return st, nil
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
