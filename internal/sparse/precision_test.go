package sparse

import (
	"math"
	"strings"
	"testing"

	"mis2go/internal/par"
)

// f32TestMatrix is sellTestMatrix with every value rounded to an exact
// float32: on such a matrix the f32 operators must reproduce the f64
// kernels bit for bit (the store-time rounding is the identity and the
// accumulation order is shared).
func f32TestMatrix(rows, cols int) *Matrix {
	a := sellTestMatrix(rows, cols)
	for p, v := range a.Val {
		a.Val[p] = float64(float32(v))
	}
	return a
}

func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]Precision{
		"":     PrecisionF64,
		"f64":  PrecisionF64,
		"f32":  PrecisionF32,
		"auto": PrecisionAuto,
	} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", in, got, err, want)
		}
		if in != "" && got.String() != in {
			t.Fatalf("Precision(%v).String() = %q, want %q", got, got.String(), in)
		}
	}
	if _, err := ParsePrecision("half"); err == nil {
		t.Fatal("ParsePrecision accepted an unknown precision")
	}
}

// TestCheckF32RangeBoundary pins the exact acceptance boundary of the
// pre-mutation range scan: ±MaxFloat32 are exactly representable and
// pass; the next representable float64 beyond fails; float32 subnormals
// (and float64 values that underflow to f32 zero) pass — underflow
// loses precision, never validity; NaN and both infinities fail.
func TestCheckF32RangeBoundary(t *testing.T) {
	accept := [][]float64{
		{math.MaxFloat32, -math.MaxFloat32},
		{1e-40, -1e-40},                       // float32 subnormals
		{5e-324, math.SmallestNonzeroFloat64}, // underflow to f32 zero
		{0, 1, -1, 6.5},
	}
	for _, vals := range accept {
		if err := CheckF32Range(vals); err != nil {
			t.Fatalf("CheckF32Range(%v) = %v, want nil", vals, err)
		}
	}
	reject := map[string][]float64{
		"above max":  {0, math.Nextafter(math.MaxFloat32, math.Inf(1))},
		"below -max": {math.Nextafter(-math.MaxFloat32, math.Inf(-1))},
		"nan":        {1, math.NaN(), 2},
		"+inf":       {math.Inf(1)},
		"-inf":       {math.Inf(-1)},
	}
	for name, vals := range reject {
		err := CheckF32Range(vals)
		if err == nil {
			t.Fatalf("CheckF32Range accepted %s: %v", name, vals)
		}
		if !strings.Contains(err.Error(), "float32") {
			t.Fatalf("%s: error %q does not name the float32 range", name, err)
		}
	}
}

// TestF32KernelsBitwiseMatchCSR pins the precision-equivalence contract
// on exactly-representable values: every CSR32 and SELL32 kernel
// reproduces the f64 CSR kernel bit for bit across shapes and worker
// counts — the f32 operators share the canonical left-to-right per-row
// float64 accumulation, so when the store-time rounding is the identity
// nothing may differ.
func TestF32KernelsBitwiseMatchCSR(t *testing.T) {
	mats := map[string]*Matrix{
		"irregular": f32TestMatrix(1003, 800),
		"small":     f32TestMatrix(13, 9),
		"singlerow": f32TestMatrix(1, 5),
	}
	for name, a := range mats {
		c32, err := NewCSR32(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s32, err := NewSELL32(a, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops := map[string]Operator{"csr32": c32, "sell32": s32}
		x := make([]float64, a.Cols)
		b := make([]float64, a.Rows)
		for i := range x {
			x[i] = float64(i%17) - 8.25
		}
		for i := range b {
			b[i] = float64(i%11) - 5.5
		}
		for opName, op := range ops {
			if r, c := op.Dims(); r != a.Rows || c != a.Cols {
				t.Fatalf("%s/%s: Dims %dx%d, want %dx%d", name, opName, r, c, a.Rows, a.Cols)
			}
			if op.NNZ() != a.NNZ() {
				t.Fatalf("%s/%s: NNZ %d, want %d", name, opName, op.NNZ(), a.NNZ())
			}
			for _, workers := range []int{1, 2, 8} {
				rt := par.New(workers)

				yCSR := make([]float64, a.Rows)
				y32 := make([]float64, a.Rows)
				a.SpMV(rt, x, yCSR)
				op.SpMV(rt, x, y32)
				bitsEqual(t, name+"/"+opName+"/SpMV", y32, yCSR)

				a.SpMVResidual(rt, b, x, yCSR)
				op.SpMVResidual(rt, b, x, y32)
				bitsEqual(t, name+"/"+opName+"/SpMVResidual", y32, yCSR)

				copy(yCSR, b)
				copy(y32, b)
				a.SpMVAdd(rt, x, yCSR)
				op.SpMVAdd(rt, x, y32)
				bitsEqual(t, name+"/"+opName+"/SpMVAdd", y32, yCSR)

				if a.Cols <= a.Rows {
					dinv := make([]float64, a.Rows)
					src := make([]float64, a.Rows)
					for i := range dinv {
						dinv[i] = 1 / (2 + float64(i%5))
						src[i] = float64(i%7) - 3
					}
					a.JacobiSweep(rt, b, dinv, 0.7, src, yCSR)
					op.JacobiSweep(rt, b, dinv, 0.7, src, y32)
					bitsEqual(t, name+"/"+opName+"/JacobiSweep", y32, yCSR)
				}

				for _, k := range []int{2, 4, 8, 5} {
					xk := make([]float64, a.Cols*k)
					for i := range xk {
						xk[i] = float64(i%19) - 9
					}
					ykCSR := make([]float64, a.Rows*k)
					yk32 := make([]float64, a.Rows*k)
					a.SpMM(rt, k, xk, ykCSR)
					op.SpMM(rt, k, xk, yk32)
					bitsEqual(t, name+"/"+opName+"/SpMM", yk32, ykCSR)
				}

				dCSR := make([]float64, a.Rows)
				d32 := make([]float64, a.Rows)
				a.DiagonalInto(rt, dCSR)
				op.DiagonalInto(rt, d32)
				bitsEqual(t, name+"/"+opName+"/Diagonal", d32, dCSR)
			}
		}
	}
}

// TestF32FillValuesRejectedLeavesPrevious pins the fail-closed refresh
// contract of both f32 operators: FillValues scans the new values for
// float32-range violations before any store, so a rejected refresh
// leaves the previously converted values serving bitwise unchanged,
// and a following valid refresh lands normally.
func TestF32FillValuesRejectedLeavesPrevious(t *testing.T) {
	a := f32TestMatrix(500, 400)
	c32, err := NewCSR32(a)
	if err != nil {
		t.Fatal(err)
	}
	s32, err := NewSELL32(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := par.New(1)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%17) - 8.25
	}
	apply := func(op Operator) []float64 {
		y := make([]float64, a.Rows)
		op.SpMV(rt, x, y)
		return y
	}
	for name, op := range map[string]ValueFiller{"csr32": c32, "sell32": s32} {
		before := apply(op.(Operator))
		for _, poison := range []float64{math.MaxFloat32 * 2, -math.MaxFloat32 * 2, math.NaN(), math.Inf(1)} {
			bad := a.Clone()
			bad.Val[len(bad.Val)/3] = poison
			if err := op.FillValues(bad); err == nil {
				t.Fatalf("%s: FillValues accepted poison %g", name, poison)
			}
			bitsEqual(t, name+"/after rejected refresh", apply(op.(Operator)), before)
		}
		// Subnormal and boundary values are valid refresh inputs.
		edge := a.Clone()
		edge.Val[0] = math.MaxFloat32
		if len(edge.Val) > 1 {
			edge.Val[1] = 1e-40
		}
		if err := op.FillValues(edge); err != nil {
			t.Fatalf("%s: FillValues rejected boundary values: %v", name, err)
		}
		// And the refresh actually landed: a fresh conversion of the same
		// values serves identically.
		fresh, err := NewCSR32(edge)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, name+"/after valid refresh", apply(op.(Operator)), apply(fresh))
	}
}

// TestF32FillValuesShapeMismatch: a refresh from a different shape or
// entry count is a descriptive error, not a corruption.
func TestF32FillValuesShapeMismatch(t *testing.T) {
	a := f32TestMatrix(100, 80)
	other := f32TestMatrix(90, 80)
	c32, err := NewCSR32(a)
	if err != nil {
		t.Fatal(err)
	}
	s32, err := NewSELL32(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]ValueFiller{"csr32": c32, "sell32": s32} {
		if err := op.FillValues(other); err == nil {
			t.Fatalf("%s: FillValues accepted a different shape", name)
		}
	}
}

// TestNewOperatorPrecDispatch pins the construction policy: explicit
// formats convert to the matching f32 operator, FormatAuto follows
// ChooseFormat, PrecisionAuto is rejected (it is a per-level hierarchy
// policy), and out-of-range values fail construction for every format.
func TestNewOperatorPrecDispatch(t *testing.T) {
	big := f32TestMatrix(4000, 4000) // above sellMinRows, regular enough for SELL
	small := f32TestMatrix(64, 64)
	if op, err := NewOperatorPrec(big, FormatCSR, 0, PrecisionF32); err != nil {
		t.Fatal(err)
	} else if _, ok := op.(*CSR32); !ok {
		t.Fatalf("FormatCSR/f32 gave %T", op)
	}
	if op, err := NewOperatorPrec(big, FormatSELL, 0, PrecisionF32); err != nil {
		t.Fatal(err)
	} else if _, ok := op.(*SELL32); !ok {
		t.Fatalf("FormatSELL/f32 gave %T", op)
	}
	if op, err := NewOperatorPrec(small, FormatAuto, 0, PrecisionF32); err != nil {
		t.Fatal(err)
	} else if _, ok := op.(*CSR32); !ok {
		t.Fatalf("small FormatAuto/f32 gave %T, want CSR32", op)
	}
	if op, err := NewOperatorPrec(small, FormatCSR, 0, PrecisionF64); err != nil {
		t.Fatal(err)
	} else if _, ok := op.(*Matrix); !ok {
		t.Fatalf("FormatCSR/f64 gave %T", op)
	}
	if _, err := NewOperatorPrec(small, FormatAuto, 0, PrecisionAuto); err == nil {
		t.Fatal("NewOperatorPrec accepted PrecisionAuto")
	}
	over := small.Clone()
	over.Val[0] = math.MaxFloat32 * 2
	for _, format := range []Format{FormatAuto, FormatCSR, FormatSELL} {
		if _, err := NewOperatorPrec(over, format, 0, PrecisionF32); err == nil {
			t.Fatalf("format %v accepted an out-of-range value", format)
		}
	}
	c32, _ := NewCSR32(small)
	s32, _ := NewSELL32(small, 0)
	sell, _ := NewSELL(small, 0)
	for _, probe := range []struct {
		op   Operator
		want Precision
	}{
		{small, PrecisionF64},
		{sell, PrecisionF64},
		{c32, PrecisionF32},
		{s32, PrecisionF32},
	} {
		if got := OperatorPrecision(probe.op); got != probe.want {
			t.Fatalf("OperatorPrecision(%T) = %v, want %v", probe.op, got, probe.want)
		}
	}
}

// TestF32RejectedSELL32AllocatesLikeCSR32: NewSELL32 range-checks the
// values before packing anything, so a rejected conversion allocates no
// more than a rejected NewCSR32 — no float64 packing built and thrown
// away.
func TestF32RejectedSELL32AllocatesLikeCSR32(t *testing.T) {
	a := f32TestMatrix(4000, 4000)
	a.Val[len(a.Val)-1] = math.MaxFloat32 * 2
	rejectCSR := func() {
		if _, err := NewCSR32(a); err == nil {
			t.Fatal("NewCSR32 accepted an out-of-range value")
		}
	}
	rejectSELL := func() {
		if _, err := NewSELL32(a, 0); err == nil {
			t.Fatal("NewSELL32 accepted an out-of-range value")
		}
	}
	if raceEnabled {
		rejectCSR()
		rejectSELL()
		t.Skip("race detector bypasses sync.Pool arena recycling, charging spurious allocations")
	}
	csr := testing.AllocsPerRun(5, rejectCSR)
	sell := testing.AllocsPerRun(5, rejectSELL)
	if sell > csr {
		t.Fatalf("rejected NewSELL32: %v allocs/op, rejected NewCSR32: %v", sell, csr)
	}
}
