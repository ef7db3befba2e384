// Tests pinning the effective-configuration reporting (power-of-two
// subdomain rounding, the Overlap==0 default-vs-explicit rule) and the
// Refresh contract: numeric-only replay bitwise identical to a fresh
// build, pattern-mismatch rejection without state damage, and the
// two-zone validity rule under mid-replay failure.
package schwarz

import (
	"math"
	"strings"
	"testing"

	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

func TestStatsReportsEffectiveCounts(t *testing.T) {
	a, _ := poisson(40, 40)
	p, err := New(a, Options{Subdomains: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.RequestedSubdomains != 5 {
		t.Fatalf("RequestedSubdomains = %d, want 5", st.RequestedSubdomains)
	}
	if st.Parts != 8 {
		t.Fatalf("Parts = %d, want 8 (5 rounded up to a power of two)", st.Parts)
	}
	if st.Subdomains != p.NumSubdomains() || st.Subdomains == 0 || st.Subdomains > st.Parts {
		t.Fatalf("Subdomains = %d inconsistent with NumSubdomains %d / Parts %d", st.Subdomains, p.NumSubdomains(), st.Parts)
	}
	if st.AMGLocal+st.DenseLocal != st.Subdomains {
		t.Fatalf("local solver split %d+%d != %d", st.AMGLocal, st.DenseLocal, st.Subdomains)
	}
	if !p.HasCoarse() || st.CoarseSize == 0 {
		t.Fatalf("coarse stats missing: %+v", st)
	}
	// Defaulting: zero Subdomains resolves to n/256 (min 2) before
	// rounding.
	pd, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pd.Stats().RequestedSubdomains, a.Rows/256; got != want {
		t.Fatalf("default RequestedSubdomains = %d, want %d", got, want)
	}
}

func TestOverlapZeroDefaultVsExplicit(t *testing.T) {
	a, b := poisson(32, 32)
	// Unset overlap defaults to 1.
	p1, err := New(a, Options{Subdomains: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := p1.Stats().Overlap; got != 1 {
		t.Fatalf("default overlap = %d, want 1", got)
	}
	// Explicit Overlap: 0 with OverlapSet is honored: pure block Jacobi,
	// whose subdomain row sets partition the rows exactly (no overlap
	// duplication).
	p0, err := New(a, Options{Subdomains: 8, Overlap: 0, OverlapSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := p0.Stats().Overlap; got != 0 {
		t.Fatalf("explicit overlap 0 reported as %d", got)
	}
	total := 0
	for _, sd := range p0.subs {
		total += sd.NumRows()
	}
	if total != a.Rows {
		t.Fatalf("block Jacobi row sets cover %d rows of %d: overlap leaked in", total, a.Rows)
	}
	for _, p := range []*Preconditioner{p0, p1} {
		x := make([]float64, a.Rows)
		st, err := krylov.CGCtx(nil, par.New(0), a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 2000, M: p})
		if err != nil || !st.Converged {
			t.Fatalf("overlap=%d solve failed: %v %+v", p.Stats().Overlap, err, st)
		}
	}
}

// scaleValues returns a clone of a with every value scaled, preserving
// the pattern.
func scaleValues(a *sparse.Matrix, s float64) *sparse.Matrix {
	c := a.Clone()
	for i := range c.Val {
		c.Val[i] *= s
	}
	return c
}

func TestRefreshMatchesFreshBuild(t *testing.T) {
	a, b := poisson(32, 32)
	opt := Options{Subdomains: 8, LocalAMGThreshold: 64}
	p, err := New(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	a2 := scaleValues(a, 1.5)
	if err := p.Refresh(a2); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(a2, opt)
	if err != nil {
		t.Fatal(err)
	}
	zr := make([]float64, a.Rows)
	zf := make([]float64, a.Rows)
	p.Precondition(b, zr)
	fresh.Precondition(b, zf)
	for i := range zr {
		if math.Float64bits(zr[i]) != math.Float64bits(zf[i]) {
			t.Fatalf("refresh diverges from fresh build at %d: %g vs %g", i, zr[i], zf[i])
		}
	}
}

func TestRefreshRejectsPatternMismatch(t *testing.T) {
	a, b := poisson(24, 24)
	p, err := New(a, Options{Subdomains: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	p.Precondition(b, want)

	other, _ := poisson(25, 24)
	if err := p.Refresh(other); err == nil {
		t.Fatal("wrong-shape refresh accepted")
	}
	// Same shape, different pattern: drop the last entry of the last row.
	mut := a.Clone()
	mut.RowPtr[mut.Rows]--
	mut.Col = mut.Col[:len(mut.Col)-1]
	mut.Val = mut.Val[:len(mut.Val)-1]
	err = p.Refresh(mut)
	if err == nil || !strings.Contains(err.Error(), "pattern") {
		t.Fatalf("pattern mismatch not rejected descriptively: %v", err)
	}
	// Zone 1: rejection happened before any mutation, so the previous
	// numeric state is untouched and still applies bitwise identically.
	if !p.Valid() {
		t.Fatal("pre-mutation rejection invalidated the preconditioner")
	}
	got := make([]float64, a.Rows)
	p.Precondition(b, got)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("rejected refresh perturbed state at %d", i)
		}
	}
}

func TestRefreshTwoZoneValidity(t *testing.T) {
	a, b := poisson(24, 24)
	p, err := New(a, Options{Subdomains: 4, NoCoarse: true})
	if err != nil {
		t.Fatal(err)
	}
	// Zone 2: an all-zero matrix has the right pattern but singular
	// local blocks, so the failure lands mid-replay (inside a subdomain
	// factorization) and must invalidate the preconditioner.
	if err := p.Refresh(scaleValues(a, 0)); err == nil {
		t.Fatal("singular refresh succeeded")
	}
	if p.Valid() {
		t.Fatal("mid-replay failure left preconditioner valid")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Precondition on invalid state did not panic")
			}
		}()
		z := make([]float64, a.Rows)
		p.Precondition(b, z)
	}()
	// A successful retry revalidates.
	if err := p.Refresh(a); err != nil {
		t.Fatal(err)
	}
	if !p.Valid() {
		t.Fatal("successful refresh did not revalidate")
	}
	z := make([]float64, a.Rows)
	p.Precondition(b, z)
}
