// Cancellation tests: the solvers must observe a canceled context from
// inside the iteration loop (not just at entry), report partial
// progress in Stats, wrap ErrCanceled with the context cause, and —
// with an uncanceled context — remain bitwise identical to a solve with
// a nil context.
package krylov

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"mis2go/internal/par"
)

// countdownCtx is a context whose Err() flips to context.Canceled after
// a fixed number of Err() calls. It lets tests cancel deterministically
// at the Nth in-loop check without timers. Done() is never closed; the
// solvers poll Err() directly, which is what makes this work.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(int64(n))
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestCGCtxCanceledMidSolve(t *testing.T) {
	a, b, _ := spdProblem(30, 30)
	rt := par.New(2)
	x := make([]float64, a.Rows)
	const allow = 5
	ctx := newCountdownCtx(allow)
	st, err := CGCtx(ctx, rt, a, b, x, Options{Tol: 1e-12, MaxIter: 2000})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not wrapped: %v", err)
	}
	// One check runs before the loop, then one per iteration: the solve
	// must stop after exactly allow-1 completed iterations.
	if st.Iterations != allow-1 {
		t.Fatalf("iterations = %d, want %d", st.Iterations, allow-1)
	}
	if st.Converged {
		t.Fatalf("canceled solve reported converged: %+v", st)
	}
	if math.IsInf(st.RelResidual, 1) || st.RelResidual == 0 {
		t.Fatalf("expected a finite partial residual, got %g", st.RelResidual)
	}
}

func TestCGCtxCanceledBeforeStart(t *testing.T) {
	a, b, _ := spdProblem(10, 10)
	x := make([]float64, a.Rows)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := CGCtx(ctx, par.New(1), a, b, x, Options{Tol: 1e-10, MaxIter: 100})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	if st.Iterations != 0 || st.Converged || !math.IsInf(st.RelResidual, 1) {
		t.Fatalf("pre-start cancel stats %+v, want 0 iterations, unconverged, +Inf residual", st)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatalf("x touched before the first cancellation check (x[%d]=%g)", i, x[i])
		}
	}
}

func TestCGCtxDeadlineCause(t *testing.T) {
	a, b, _ := spdProblem(20, 20)
	x := make([]float64, a.Rows)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := CGCtx(ctx, par.New(1), a, b, x, Options{Tol: 1e-12, MaxIter: 1000})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
}

func TestCGCtxBackgroundBitwiseIdentical(t *testing.T) {
	a, b, _ := spdProblem(25, 25)
	rt := par.New(4)
	x1 := make([]float64, a.Rows)
	x2 := make([]float64, a.Rows)
	st1, err1 := CGCtx(nil, rt, a, b, x1, Options{Tol: 1e-10, MaxIter: 500})
	st2, err2 := CGCtx(context.Background(), rt, a, b, x2, Options{Tol: 1e-10, MaxIter: 500})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("bit mismatch at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}

func TestGMRESCtxCanceledMidSolve(t *testing.T) {
	a, b, _ := spdProblem(25, 25)
	rt := par.New(2)
	x := make([]float64, a.Rows)
	const allow = 6
	ctx := newCountdownCtx(allow)
	st, err := GMRESCtx(ctx, rt, a, b, x, 30, Options{Tol: 1e-12, MaxIter: 3000})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	if st.Converged {
		t.Fatalf("canceled GMRES reported converged: %+v", st)
	}
	// One check per Arnoldi step: the allow-th step's check trips.
	if st.Iterations != allow {
		t.Fatalf("iterations = %d, want %d", st.Iterations, allow)
	}
	// No restart cycle completed, so the correction was never applied:
	// x must still hold the (zero) initial guess.
	for i := range x {
		if x[i] != 0 {
			t.Fatalf("half-built cycle leaked into x (x[%d]=%g)", i, x[i])
		}
	}
}

func TestGMRESCtxBackgroundBitwiseIdentical(t *testing.T) {
	a, b, _ := spdProblem(15, 15)
	rt := par.New(2)
	x1 := make([]float64, a.Rows)
	x2 := make([]float64, a.Rows)
	st1, err1 := GMRESCtx(nil, rt, a, b, x1, 40, Options{Tol: 1e-10, MaxIter: 2000})
	st2, err2 := GMRESCtx(context.Background(), rt, a, b, x2, 40, Options{Tol: 1e-10, MaxIter: 2000})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("bit mismatch at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}
