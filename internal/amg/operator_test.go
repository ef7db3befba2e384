package amg

import (
	"math"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// TestSELLVCycleBitwiseMatchesCSR pins the operator-format equivalence
// contract end to end at f64: see vcycleSELLMatchesCSRView.
func TestSELLVCycleBitwiseMatchesCSR(t *testing.T) {
	vcycleSELLMatchesCSRView(t, sparse.PrecisionF64)
}

// TestF32VCycleBitwiseAcrossWorkersAndFormats pins f32 determinism end
// to end: under the f32 and auto precision policies a V-cycle through
// SELL32 level operators matches their CSR32 views bitwise at every
// worker count. The f32 result legitimately differs from the f64 one
// (values were rounded once at store time), so each policy carries its
// own reference.
func TestF32VCycleBitwiseAcrossWorkersAndFormats(t *testing.T) {
	for _, prec := range []sparse.Precision{sparse.PrecisionF32, sparse.PrecisionAuto} {
		vcycleSELLMatchesCSRView(t, prec)
	}
}

// vcycleSELLMatchesCSRView builds an auto hierarchy on Laplace3D 20^3,
// which puts level 0 on SELL, at precision policy prec. Swapping every
// SELL level's operator for a CSR view of the same precision must leave
// one V-cycle bitwise unchanged, at every worker count (1/2/8): the
// formats share the canonical per-row left-to-right accumulation order,
// so no kernel may differ by even one ULP.
func vcycleSELLMatchesCSRView(t *testing.T, prec sparse.Precision) {
	t.Helper()
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
		h, err := Build(a, Options{Threads: threads, Precision: prec})
		if err != nil {
			t.Fatalf("%v, %d workers: %v", prec, threads, err)
		}
		if f := h.Levels[0].Format(); f != sparse.FormatSELL {
			t.Fatalf("%v: level 0 format %v, want SELL", prec, f)
		}
		sell := apply(h)
		for k, l := range h.Levels {
			if l.Format() != sparse.FormatSELL {
				continue
			}
			op, err := sparse.NewOperatorPrec(l.A, sparse.FormatCSR, 0, l.Precision())
			if err != nil {
				t.Fatalf("%v: level %d CSR view: %v", prec, k, err)
			}
			l.op = op
		}
		csr := apply(h)
		if ref == nil {
			ref = sell
		}
		for i := range ref {
			if sell[i] != ref[i] {
				t.Fatalf("%v, %d workers: SELL z[%d] differs bitwise from 1 worker", prec, threads, i)
			}
			if csr[i] != ref[i] {
				t.Fatalf("%v, %d workers: CSR-view z[%d] differs bitwise from SELL", prec, threads, i)
			}
		}
	}
}

// TestFineOperatorFollowsRefreshBitwise: FineOperator is refreshed in
// place by every numeric pass, so after a Refresh its SpMV matches the
// refreshed CSR matrix (in the finest level's precision) bitwise, for
// both a SELL finest level (14^3 rows) and a one-level hierarchy.
func TestFineOperatorFollowsRefreshBitwise(t *testing.T) {
	rt := par.New(2)
	for name, tc := range map[string]struct {
		nx   int
		opt  Options
		prec sparse.Precision
	}{
		"sell/f64":      {14, Options{}, sparse.PrecisionF64},
		"sell/f32":      {14, Options{Precision: sparse.PrecisionF32}, sparse.PrecisionF32},
		"sell/auto":     {14, Options{Precision: sparse.PrecisionAuto}, sparse.PrecisionF64},
		"onelevel/f32":  {6, Options{MinCoarseSize: 1000, Precision: sparse.PrecisionF32}, sparse.PrecisionF32},
		"onelevel/auto": {6, Options{MinCoarseSize: 1000, Precision: sparse.PrecisionAuto}, sparse.PrecisionF64},
	} {
		a := gen.Laplacian(gen.Laplace3D(tc.nx, tc.nx, tc.nx), 0.05)
		h, err := Build(a, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sparse.OperatorPrecision(h.FineOperator()); got != tc.prec {
			t.Fatalf("%s: FineOperator stores %v, want %v", name, got, tc.prec)
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
			ref, err := sparse.NewOperatorPrec(a2, sparse.FormatCSR, 0, tc.prec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := make([]float64, a.Rows)
			want := make([]float64, a.Rows)
			h.FineOperator().SpMV(rt, x, got)
			ref.SpMV(rt, x, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, scale %g: FineOperator SpMV y[%d] = %g, refreshed CSR gives %g", name, s, i, got[i], want[i])
				}
			}
		}
	}
}
