// Tests for the symbolic/numeric setup split: BuildSymbolic+BuildNumeric
// and Refresh must produce hierarchies bitwise identical to a fresh
// Build on the same values, for every worker count, and Refresh must
// reject pattern mismatches cleanly.
package amg

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/sparse"
)

var refreshWorkerCounts = []int{1, 2, 8}

// refreshProblems returns the same-pattern test operators: a Laplace3D
// stencil matrix and an irregular weighted FEM-like Laplacian.
func refreshProblems() map[string]*sparse.Matrix {
	return map[string]*sparse.Matrix{
		"laplace3d":   gen.Laplacian(gen.Laplace3D(12, 12, 12), 0.05),
		"weightedfem": gen.WeightedLaplacian(gen.RandomFEM(8, 8, 8, 14, 3), 0.1, 11),
	}
}

// rescale returns a copy of a with deterministically perturbed values on
// the identical pattern (an SPD-preserving global + per-entry scaling).
func rescale(a *sparse.Matrix, seed int) *sparse.Matrix {
	b := a.Clone()
	s := 1 + 0.25*float64(seed%3)
	for p := range b.Val {
		b.Val[p] *= s
	}
	return b
}

// hierarchiesEqual compares two hierarchies bitwise: level operators,
// prolongators, restrictions, inverse diagonals, spectral radii, and the
// dense coarse factorization.
func hierarchiesEqual(t *testing.T, label string, got, want *Hierarchy) {
	t.Helper()
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.Levels), len(want.Levels))
	}
	eqMatrix := func(what string, g, w *sparse.Matrix) {
		t.Helper()
		if g == nil || w == nil {
			if g != w {
				t.Fatalf("%s: %s nil mismatch", label, what)
			}
			return
		}
		if g.Rows != w.Rows || g.Cols != w.Cols || len(g.Col) != len(w.Col) {
			t.Fatalf("%s: %s shape/nnz mismatch", label, what)
		}
		for i := range w.RowPtr {
			if g.RowPtr[i] != w.RowPtr[i] {
				t.Fatalf("%s: %s RowPtr[%d] differs", label, what, i)
			}
		}
		for p := range w.Col {
			if g.Col[p] != w.Col[p] {
				t.Fatalf("%s: %s Col[%d] differs", label, what, p)
			}
			if g.Val[p] != w.Val[p] {
				t.Fatalf("%s: %s Val[%d] = %v, want %v (not bitwise identical)", label, what, p, g.Val[p], w.Val[p])
			}
		}
	}
	for k := range want.Levels {
		gl, wl := got.Levels[k], want.Levels[k]
		eqMatrix("A", gl.A, wl.A)
		eqMatrix("P", gl.P, wl.P)
		eqMatrix("R", gl.R, wl.R)
		if gl.rho != wl.rho {
			t.Fatalf("%s: level %d rho %v, want %v", label, k, gl.rho, wl.rho)
		}
		for i := range wl.dinv {
			if gl.dinv[i] != wl.dinv[i] {
				t.Fatalf("%s: level %d dinv[%d] differs", label, k, i)
			}
		}
	}
	if got.coarse.N != want.coarse.N {
		t.Fatalf("%s: coarse order %d, want %d", label, got.coarse.N, want.coarse.N)
	}
	for i := range want.coarse.Data {
		if got.coarse.Data[i] != want.coarse.Data[i] {
			t.Fatalf("%s: coarse factor entry %d differs", label, i)
		}
	}
}

// preconditionOnce applies one V-cycle to a fixed residual, for
// comparing smoother state (gsOp) that hierarchiesEqual cannot inspect
// structurally.
func preconditionOnce(h *Hierarchy) []float64 {
	n := h.Levels[0].A.Rows
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	h.Precondition(r, z)
	return z
}

func TestRefreshDeterministicAcrossWorkers(t *testing.T) {
	for name, a := range refreshProblems() {
		for _, w := range refreshWorkerCounts {
			opt := Options{Threads: w, MinCoarseSize: 60}
			// The split phases must reproduce the one-shot Build.
			h, err := BuildSymbolic(a, opt)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, w, err)
			}
			if err := h.BuildNumeric(a); err != nil {
				t.Fatalf("%s/%d: %v", name, w, err)
			}
			want, err := Build(a, opt)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, w, err)
			}
			hierarchiesEqual(t, name+"/split-vs-build", h, want)

			// Refresh with perturbed values must equal a fresh Build on
			// those values — including after several refreshes.
			for seed := 1; seed <= 3; seed++ {
				a2 := rescale(a, seed)
				if err := h.Refresh(a2); err != nil {
					t.Fatalf("%s/%d: refresh %d: %v", name, w, seed, err)
				}
				want2, err := Build(a2, opt)
				if err != nil {
					t.Fatalf("%s/%d: %v", name, w, err)
				}
				hierarchiesEqual(t, name+"/refresh-vs-build", h, want2)
			}

			// Refreshing back to the original values restores the original
			// hierarchy exactly.
			if err := h.Refresh(a); err != nil {
				t.Fatalf("%s/%d: %v", name, w, err)
			}
			hierarchiesEqual(t, name+"/refresh-roundtrip", h, want)
		}
	}
}

func TestRefreshDeterministicSmootherVariants(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(10, 10, 10), 0.05)
	a2 := rescale(a, 1)
	for name, opt := range map[string]Options{
		"pointsgs": {MinCoarseSize: 60, Smoother: SmootherPointSGS, PreSweeps: 1, PostSweeps: 1},
	} {
		h, err := Build(a, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := h.Refresh(a2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Build(a2, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hierarchiesEqual(t, name, h, want)
		// One V-cycle application must match bitwise too (this covers the
		// rebuilt Gauss-Seidel operators).
		zg, zw := preconditionOnce(h), preconditionOnce(want)
		for i := range zw {
			if zg[i] != zw[i] {
				t.Fatalf("%s: V-cycle output %d differs after refresh", name, i)
			}
		}
	}
}

func TestRefreshRejectsPatternMismatch(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(8, 8, 8), 0.05)
	h, err := Build(a, Options{MinCoarseSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Different size.
	other := gen.Laplacian(gen.Laplace3D(8, 8, 9), 0.05)
	if err := h.Refresh(other); err == nil {
		t.Fatal("refresh with different dimensions not rejected")
	}
	// Same size, different pattern (an extra stencil connection).
	same := gen.Laplacian(gen.RandomFEM(8, 8, 8, 10, 5), 0.05)
	if same.Rows == a.Rows {
		if err := h.Refresh(same); err == nil {
			t.Fatal("refresh with different pattern not rejected")
		} else if !strings.Contains(err.Error(), "pattern") {
			t.Fatalf("pattern mismatch error not descriptive: %v", err)
		}
	}
	// Non-finite values.
	bad := a.Clone()
	bad.Val[0] = bad.Val[0] / 0.0 // +Inf
	if err := h.Refresh(bad); err == nil {
		t.Fatal("refresh with non-finite values not rejected")
	}
	// The hierarchy is still usable after rejected refreshes.
	if err := h.Refresh(a); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshRejectsZeroDiagonal(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(8, 8, 8), 0.05)
	h, err := Build(a, Options{MinCoarseSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	bad := a.Clone()
	for p := bad.RowPtr[3]; p < bad.RowPtr[4]; p++ {
		if int(bad.Col[p]) == 3 {
			bad.Val[p] = 0
		}
	}
	before := preconditionOnce(h)
	if err := h.Refresh(bad); err == nil {
		t.Fatal("refresh with zero diagonal not rejected")
	} else if !strings.Contains(err.Error(), "zero diagonal") {
		t.Fatalf("zero-diagonal error not descriptive: %v", err)
	}
	// The rejection happened before any level state was touched: the
	// hierarchy still reports valid and keeps serving the previous
	// operator, bitwise unchanged.
	if !h.Valid() {
		t.Fatal("pre-mutation rejection invalidated the hierarchy")
	}
	after := preconditionOnce(h)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("V-cycle result changed after rejected refresh at %d: %g vs %g", i, before[i], after[i])
		}
	}
	want, err := Build(a, Options{MinCoarseSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	hierarchiesEqual(t, "after-rejected-refresh", h, want)
	// A subsequent good refresh still works.
	if err := h.Refresh(rescale(a, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshRejectsMissingAndSignFlippedDiagonal(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(8, 8, 8), 0.05)
	h, err := Build(a, Options{MinCoarseSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	before := preconditionOnce(h)

	// A sign-flipped diagonal entry (the operator turning indefinite on
	// the identical pattern) must be rejected pre-mutation.
	flip := a.Clone()
	for p := flip.RowPtr[5]; p < flip.RowPtr[6]; p++ {
		if int(flip.Col[p]) == 5 {
			flip.Val[p] = -flip.Val[p]
		}
	}
	if err := h.Refresh(flip); err == nil {
		t.Fatal("refresh with sign-flipped diagonal not rejected")
	} else if !strings.Contains(err.Error(), "sign flip") {
		t.Fatalf("sign-flip error not descriptive: %v", err)
	}
	if !h.Valid() {
		t.Fatal("sign-flip rejection invalidated the hierarchy")
	}
	after := preconditionOnce(h)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("V-cycle result changed after rejected refresh at %d", i)
		}
	}
	// A uniformly negated operator is still sign-consistent per row
	// against its own previous state only if signs match; flipping every
	// diagonal is also a flip relative to the built state and must be
	// rejected too.
	neg := a.Clone()
	neg.Scale(-1)
	if err := h.Refresh(neg); err == nil {
		t.Fatal("refresh with fully negated operator not rejected")
	}
	// The hierarchy remains usable for the original values.
	if err := h.Refresh(a); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSymbolicLeavesValuesToNumeric(t *testing.T) {
	// BuildNumeric on a hierarchy built symbolically from one value set
	// but filled from another must match Build of the second set: the
	// symbolic phase must not capture any value-dependent state.
	a := gen.Laplacian(gen.Laplace3D(10, 10, 10), 0.05)
	a2 := rescale(a, 2)
	h, err := BuildSymbolic(a, Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.BuildNumeric(a2); err != nil {
		t.Fatal(err)
	}
	want, err := Build(a2, Options{MinCoarseSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	hierarchiesEqual(t, "symbolic-then-other-values", h, want)
}

// TestBuildRejectsMissingDiagonal: a pattern with no stored diagonal in
// some row cannot produce a usable numeric state; validateValues'
// missing-entry (diagPos < 0) branch must reject it.
func TestBuildRejectsMissingDiagonal(t *testing.T) {
	a := gen.Laplacian(gen.Laplace2D(6, 6), 0.05)
	// Rebuild the CSR with row 3's diagonal entry deleted.
	b := &sparse.Matrix{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, 1, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if i == 3 && int(a.Col[p]) == 3 {
				continue
			}
			b.Col = append(b.Col, a.Col[p])
			b.Val = append(b.Val, a.Val[p])
		}
		b.RowPtr = append(b.RowPtr, len(b.Col))
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(b, Options{}); err == nil {
		t.Fatal("matrix with missing diagonal entry accepted")
	} else if !strings.Contains(err.Error(), "zero diagonal") {
		t.Fatalf("missing-diagonal error not descriptive: %v", err)
	}
}

// TestRefreshDeepNumericFailureInvalidates: a value set that passes the
// pre-mutation validation but fails mid-replay (here: a singular coarse
// factorization) must invalidate the hierarchy — Valid reports false
// and Precondition panics — until a subsequent numeric pass succeeds.
func TestRefreshDeepNumericFailureInvalidates(t *testing.T) {
	a := &sparse.Matrix{Rows: 2, Cols: 2,
		RowPtr: []int{0, 2, 4}, Col: []int32{0, 1, 0, 1}, Val: []float64{2, 1, 1, 2}}
	h, err := Build(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Positive diagonal, finite, same signs — but singular: the dense
	// coarse factorization fails after the level state was refreshed.
	sing := a.Clone()
	copy(sing.Val, []float64{1, 1, 1, 1})
	if err := h.Refresh(sing); err == nil {
		t.Fatal("singular refresh not rejected")
	}
	if h.Valid() {
		t.Fatal("deep numeric failure left the hierarchy marked valid")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Precondition on an invalidated hierarchy did not panic")
			}
		}()
		preconditionOnce(h)
	}()
	if err := h.Refresh(a); err != nil {
		t.Fatal(err)
	}
	if !h.Valid() {
		t.Fatal("successful refresh did not restore validity")
	}
	preconditionOnce(h)
}

// TestBuildNumericIsHistoryIndependent: BuildNumeric is a full numeric
// rebuild — "values may differ" — so unlike Refresh it must accept a
// sign-changed operator regardless of what was built before, and the
// result must equal building the negated operator directly.
func TestBuildNumericIsHistoryIndependent(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(8, 8, 8), 0.05)
	neg := a.Clone()
	neg.Scale(-1)
	h, err := Build(a, Options{MinCoarseSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.BuildNumeric(neg); err != nil {
		t.Fatalf("BuildNumeric rejected sign-changed values after a prior numeric pass: %v", err)
	}
	want, err := Build(neg, Options{MinCoarseSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	hierarchiesEqual(t, "rebuild-negated", h, want)
	// Refresh keeps its stricter same-operator contract.
	if err := h.Refresh(a); err == nil {
		t.Fatal("Refresh accepted a sign flip relative to the current operator")
	}
}

// TestValueRejectionBitwiseAcrossWorkers plants several value defects
// in different row blocks and requires the same rejection text from
// Refresh and Build at 1, 2 and 8 workers: the lowest non-finite entry
// before any diagonal check, then the lowest failing diagonal row.
func TestValueRejectionBitwiseAcrossWorkers(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(12, 12, 12), 0.05)
	diagAt := func(m *sparse.Matrix, i int) *float64 {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if int(m.Col[p]) == i {
				return &m.Val[p]
			}
		}
		t.Fatalf("row %d stores no diagonal", i)
		return nil
	}
	nonFinite := a.Clone()
	nonFinite.Val[9000] = math.NaN()
	nonFinite.Val[2000] = math.Inf(1)
	*diagAt(nonFinite, 100) = 0
	diagonal := a.Clone()
	*diagAt(diagonal, 1500) = 0
	*diagAt(diagonal, 900) *= -1
	*diagAt(diagonal, 1200) *= -1
	zeros := a.Clone()
	*diagAt(zeros, 1200) = 0
	*diagAt(zeros, 600) = 0
	for _, tc := range []struct {
		name    string
		m       *sparse.Matrix
		refresh string // Refresh's rejection
		build   string // Build's rejection
	}{
		{"non-finite", nonFinite, "non-finite value at entry 2000", "non-finite value at row"},
		{"diagonal", diagonal, "sign flip at row 900", "zero diagonal at row 1500"},
		{"zeros", zeros, "zero diagonal at row 600", "zero diagonal at row 600"},
	} {
		var refreshText, buildText string
		for _, workers := range refreshWorkerCounts {
			h, err := Build(a, Options{Threads: workers})
			if err != nil {
				t.Fatal(err)
			}
			rerr := h.Refresh(tc.m)
			_, berr := Build(tc.m, Options{Threads: workers})
			if rerr == nil || berr == nil {
				t.Fatalf("%s, %d workers: Refresh %v, Build %v: want both rejected", tc.name, workers, rerr, berr)
			}
			if !strings.Contains(rerr.Error(), tc.refresh) || !strings.Contains(berr.Error(), tc.build) {
				t.Fatalf("%s, %d workers: Refresh %q, Build %q; want %q and %q", tc.name, workers, rerr, berr, tc.refresh, tc.build)
			}
			// Build's non-finite rejection is Validate's; every other one is
			// a pre-mutation value rejection.
			if !errors.Is(rerr, ErrBadValues) || (tc.name != "non-finite" && !errors.Is(berr, ErrBadValues)) {
				t.Fatalf("%s, %d workers: Refresh %v, Build %v: want ErrBadValues", tc.name, workers, rerr, berr)
			}
			if workers == refreshWorkerCounts[0] {
				refreshText, buildText = rerr.Error(), berr.Error()
			} else if rerr.Error() != refreshText || berr.Error() != buildText {
				t.Fatalf("%s, %d workers: %q / %q differ from 1 worker's %q / %q", tc.name, workers, rerr, berr, refreshText, buildText)
			}
		}
	}
}
