// Cancellation tests for the Ctx setup variants: between-level checks
// must fire, the error must wrap ErrCanceled plus the context cause,
// pre-mutation cancels must leave the previous numeric state usable,
// and mid-replay cancels must invalidate like any other replay failure.
package amg

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// countdownCtx cancels after a fixed number of Err() calls, letting
// tests hit a specific between-level check deterministically.
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

func TestBuildCtxCanceledUpFront(t *testing.T) {
	a, _ := laplaceProblem(8, 8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := BuildCtx(ctx, a, Options{MinCoarseSize: 50})
	if h != nil {
		t.Fatal("canceled build returned a hierarchy")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
}

func TestBuildCtxCanceledBetweenLevels(t *testing.T) {
	a, _ := laplaceProblem(10, 10, 10)
	// First confirm the uncanceled hierarchy is deep enough that a
	// level-1 symbolic check exists to trip.
	ref, err := Build(a.Clone(), Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumLevels() < 2 {
		t.Skip("hierarchy too shallow for a between-level check")
	}
	// One Err call per symbolic level: allow exactly one, so the level-1
	// check cancels mid-construction.
	h, err := BuildCtx(newCountdownCtx(1), a, Options{MinCoarseSize: 50})
	if h != nil {
		t.Fatal("canceled build returned a hierarchy")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestBuildCtxBackgroundIdentical(t *testing.T) {
	a, b := laplaceProblem(8, 8, 8)
	h1, err := Build(a.Clone(), Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := BuildCtx(context.Background(), a.Clone(), Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, a.Rows)
	x2 := make([]float64, a.Rows)
	stationary(h1, b, x1, 1e-10, 100)
	stationary(h2, b, x2, 1e-10, 100)
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("bit mismatch at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}

func TestRefreshCtxPreMutationCancelLeavesValid(t *testing.T) {
	a, b := laplaceProblem(8, 8, 8)
	h, err := Build(a.Clone(), Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	stationary(h, b, want, 1e-10, 100)

	a2 := a.Clone()
	a2.Scale(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = h.RefreshCtx(ctx, a2)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	if !h.Valid() {
		t.Fatal("pre-mutation cancel invalidated the hierarchy")
	}
	// The previous operator must still solve bitwise identically.
	got := make([]float64, a.Rows)
	stationary(h, b, got, 1e-10, 100)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("previous state corrupted at %d: %g vs %g", i, got[i], want[i])
		}
	}
	// And a later uncanceled refresh must succeed and track the new values.
	if err := h.Refresh(a2); err != nil {
		t.Fatal(err)
	}
	if !h.Valid() {
		t.Fatal("refresh after canceled refresh did not restore validity")
	}
}

func TestRefreshCtxMidReplayCancelInvalidates(t *testing.T) {
	a, _ := laplaceProblem(10, 10, 10)
	h, err := Build(a.Clone(), Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 2 {
		t.Skip("hierarchy too shallow for a between-level check")
	}
	a2 := a.Clone()
	a2.Scale(1.5)
	// Err calls in the numeric phase: one pre-mutation, then one per
	// level from level 1 on. Allowing exactly one trips the level-1
	// check with level 0 already replayed.
	err = h.RefreshCtx(newCountdownCtx(1), a2)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if h.Valid() {
		t.Fatal("mid-replay cancel left the hierarchy marked valid")
	}
	// Recovery: a full uncanceled numeric pass restores validity.
	if err := h.BuildNumeric(a2); err != nil {
		t.Fatal(err)
	}
	if !h.Valid() {
		t.Fatal("BuildNumeric after mid-replay cancel did not restore validity")
	}
}
