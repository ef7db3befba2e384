package sparse

import (
	"encoding/binary"
	"math"
	"testing"

	"mis2go/internal/par"
)

// fuzzOperatorMatrix decodes a fuzz input into a valid CSR matrix and a
// SELL sort window. Layout: data[0] and data[1] give the rows and
// columns of a block (1..40 each), data[2] a power-of-two value scale
// (an int8 exponent), data[3] the block count (1..64, stacked
// block-diagonally so larger inputs cross the parallel split
// threshold), data[4] the sigma choice (its low two bits) and a block
// count multiplier (1..8, its next three bits, so even two-row blocks
// can cross the split), then 4-byte entries (row, col, int16 value
// code). A value is code/3 scaled, and the most negative
// code stands for -0. A repeated (row, col) keeps its last value. Returns
// nil for inputs shorter than the header.
func fuzzOperatorMatrix(data []byte) (*Matrix, int) {
	if len(data) < 5 {
		return nil, 0
	}
	br, bc := 1+int(data[0])%40, 1+int(data[1])%40
	exp := int(int8(data[2]))
	tiles := (1 + int(data[3])%64) * (1 + int(data[4]>>2)%8)
	sigma := []int{sellSigma, sellC, 2 * sellC, 64}[data[4]%4]
	val := make([]float64, br*bc)
	set := make([]bool, br*bc)
	for e := data[5:]; len(e) >= 4; e = e[4:] {
		at := int(e[0])%br*bc + int(e[1])%bc
		code := int16(binary.LittleEndian.Uint16(e[2:]))
		val[at], set[at] = math.Ldexp(float64(code)/3, exp), true
		if code == math.MinInt16 {
			val[at] = math.Copysign(0, -1)
		}
	}
	a := &Matrix{Rows: br * tiles, Cols: bc * tiles, RowPtr: make([]int, 1, br*tiles+1)}
	for t := 0; t < tiles; t++ {
		for r := 0; r < br; r++ {
			for c := 0; c < bc; c++ {
				if set[r*bc+c] {
					a.Col = append(a.Col, int32(t*bc+c))
					a.Val = append(a.Val, val[r*bc+c])
				}
			}
			a.RowPtr = append(a.RowPtr, len(a.Col))
		}
	}
	return a, sigma
}

// requireOperatorMatchesCSR checks every Operator kernel of op against
// the CSR kernels of ref, bit for bit, at 1, 2 and 8 workers.
func requireOperatorMatchesCSR(t *testing.T, name string, ref *Matrix, op Operator) {
	t.Helper()
	if r, c := op.Dims(); r != ref.Rows || c != ref.Cols || op.NNZ() != ref.NNZ() {
		t.Fatalf("%s: %dx%d/%d entries, CSR %dx%d/%d", name, r, c, op.NNZ(), ref.Rows, ref.Cols, ref.NNZ())
	}
	n := max(ref.Rows, ref.Cols)
	x := make([]float64, n) // also the Jacobi iterate, read by row and by column
	for j := range x {
		x[j] = float64(j%13-6) / 7
	}
	b := make([]float64, ref.Rows)
	dinv := make([]float64, ref.Rows)
	for i := range b {
		b[i] = float64(i%11) - 5.5
		dinv[i] = 1 / (2 + float64(i%5))
	}
	want := make([]float64, ref.Rows)
	got := make([]float64, ref.Rows)
	for _, workers := range []int{1, 2, 8} {
		rt := par.New(workers)
		check := func(kernel string, run func(a Operator, y []float64)) {
			t.Helper()
			run(ref, want)
			run(op, got)
			bitsEqual(t, name+"/"+kernel, got, want)
		}
		xc := x[:ref.Cols]
		rows := func(y []float64) []float64 { return y[:ref.Rows] }
		check("SpMV", func(a Operator, y []float64) { a.SpMV(rt, xc, rows(y)) })
		check("SpMVResidual", func(a Operator, y []float64) { a.SpMVResidual(rt, b, xc, rows(y)) })
		check("SpMVAdd", func(a Operator, y []float64) { copy(y, b); a.SpMVAdd(rt, xc, rows(y)) })
		check("JacobiSweep", func(a Operator, y []float64) { a.JacobiSweep(rt, b, dinv, 0.7, x, rows(y)) })
	}
}

// FuzzOperatorFormats is the differential oracle of the operator
// formats: on fuzzed valid matrices the SELL conversion must equal the
// serial reference field by field at 1, 2 and 8 workers, and so must
// FillValues after a value change, and SELL must match CSR bit for bit
// for every kernel at 1, 2 and 8 workers.
func FuzzOperatorFormats(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, sigma := fuzzOperatorMatrix(data)
		if a == nil {
			t.Skip("input shorter than the header")
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("decoded matrix is invalid: %v", err)
		}
		want := refSELL(a, sigma)
		scaled := scaledCopy(a, -1.5)
		wantScaled := refSELL(scaled, sigma)
		for _, workers := range []int{1, 2, 8} {
			rt := par.New(workers)
			sell, err := newSELL(rt, a, sigma)
			if err != nil {
				t.Fatal(err)
			}
			requireSELLEqual(t, "conversion", sell, want)
			if err := sell.FillValues(rt, scaled); err != nil {
				t.Fatal(err)
			}
			requireSELLEqual(t, "FillValues", sell, wantScaled)
		}
		sell, err := newSELL(par.New(2), a, sigma)
		if err != nil {
			t.Fatal(err)
		}
		requireOperatorMatchesCSR(t, "sell", a, sell)
	})
}
