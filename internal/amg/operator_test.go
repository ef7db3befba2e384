package amg

import (
	"math"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// TestSELLVCycleBitwiseMatchesCSR pins the operator-format equivalence
// contract end to end: an auto hierarchy on Laplace3D 20^3 puts level 0
// on SELL, and swapping every SELL level's operator for a CSR view must
// leave one V-cycle bitwise unchanged, at every worker count (1/2/8):
// the formats share the canonical per-row left-to-right accumulation
// order, so no kernel may differ by even one ULP.
func TestSELLVCycleBitwiseMatchesCSR(t *testing.T) {
	a := gen.Laplacian(gen.Laplace3D(20, 20, 20), 1e-4)
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	apply := func(h *Hierarchy) []uint64 {
		z := make([]float64, a.Rows)
		h.Precondition(r, z)
		bits := make([]uint64, len(z))
		for i, v := range z {
			bits[i] = math.Float64bits(v)
		}
		return bits
	}
	var ref []uint64
	for _, threads := range []int{1, 2, 8} {
		h, err := Build(a, Options{Threads: threads})
		if err != nil {
			t.Fatalf("%d workers: %v", threads, err)
		}
		if f := h.Levels[0].Format(); f != sparse.FormatSELL {
			t.Fatalf("level 0 format %v, want SELL", f)
		}
		sell := apply(h)
		for _, l := range h.Levels {
			if l.Format() != sparse.FormatSELL {
				continue
			}
			l.op = l.A // the level's CSR matrix is its CSR view
		}
		csr := apply(h)
		if ref == nil {
			ref = sell
		}
		for i := range ref {
			if sell[i] != ref[i] {
				t.Fatalf("%d workers: SELL z[%d] differs bitwise from 1 worker", threads, i)
			}
			if csr[i] != ref[i] {
				t.Fatalf("%d workers: CSR-view z[%d] differs bitwise from SELL", threads, i)
			}
		}
	}
}

// TestFineOperatorFollowsRefreshBitwise: FineOperator is refreshed in
// place by every numeric pass, so after a Refresh its SpMV matches the
// refreshed CSR matrix bitwise, for both a SELL finest level (14^3 rows) and a one-level hierarchy.
func TestFineOperatorFollowsRefreshBitwise(t *testing.T) {
	rt := par.New(2)
	for name, tc := range map[string]struct {
		nx  int
		opt Options
	}{
		"sell":     {14, Options{}},
		"onelevel": {6, Options{MinCoarseSize: 1000}},
	} {
		a := gen.Laplacian(gen.Laplace3D(tc.nx, tc.nx, tc.nx), 0.05)
		h, err := Build(a, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tc.nx == 14 && h.Levels[0].Format() != sparse.FormatSELL {
			t.Fatalf("%s: level 0 format %v, want SELL", name, h.Levels[0].Format())
		}
		x := make([]float64, a.Rows)
		for i := range x {
			x[i] = float64(i%11) - 5
		}
		for _, s := range []float64{1.5, 0.75} {
			a2 := a.Clone()
			a2.Scale(s)
			if err := h.Refresh(a2); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := make([]float64, a.Rows)
			want := make([]float64, a.Rows)
			h.FineOperator().SpMV(rt, x, got)
			a2.SpMV(rt, x, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, scale %g: FineOperator SpMV y[%d] = %g, refreshed CSR gives %g", name, s, i, got[i], want[i])
				}
			}
		}
	}
}
