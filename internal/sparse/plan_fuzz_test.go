package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mis2go/internal/par"
)

// fuzzOperands are the decoded operands of one FuzzProductPlan input:
// the product A*B, and the smooth (I - omega*D^{-1}*S)*B with B as P0.
type fuzzOperands struct {
	a, b, s *Matrix
	dinv    []float64
	omega   float64
}

// decodeFuzzOperands decodes a fuzz input into conforming operands.
// Layout: data[0], data[1] and data[2] give A's rows, the inner
// dimension and B's columns of one tile (1..40 each); data[3] the tile
// count (1..64, every matrix stacked block-diagonally, so larger inputs
// cross the parallel split threshold); data[4] and data[5] the densities
// of A and B (0 stores nothing, 255 stores every entry; the square tile
// S, inner dimension by inner dimension, shares A's); data[6] seeds the
// position hash that picks the stored entries. The rest is a stream of
// int16 value codes, taken in turn by the stored entries of A, B and
// S, then by dinv and omega, and reused from the start when it runs
// out: a value is code/3, the most negative code stands for -0, and an
// empty stream makes every value 1. Returns false for inputs shorter
// than the header.
func decodeFuzzOperands(data []byte) (fuzzOperands, bool) {
	if len(data) < 7 {
		return fuzzOperands{}, false
	}
	m, k, n := 1+int(data[0])%40, 1+int(data[1])%40, 1+int(data[2])%40
	tiles := 1 + int(data[3])%64
	codes := data[7:]
	next := 0
	value := func() float64 {
		if len(codes) < 2 {
			return 1
		}
		if next+2 > len(codes) {
			next = 0
		}
		code := int16(binary.LittleEndian.Uint16(codes[next:]))
		next += 2
		if code == math.MinInt16 {
			return math.Copysign(0, -1)
		}
		return float64(code) / 3
	}
	build := func(rows, cols int, density, salt byte) *Matrix {
		a := &Matrix{Rows: rows * tiles, Cols: cols * tiles, RowPtr: make([]int, 1, rows*tiles+1)}
		for t := 0; t < tiles; t++ {
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					h := (uint32(i)<<8 | uint32(j)) ^ uint32(data[6])<<16 ^ uint32(salt)<<24
					h ^= h >> 15
					h *= 0x2c1b3c6d
					h ^= h >> 12
					if h%255 < uint32(density) {
						a.Col = append(a.Col, int32(t*cols+j))
						a.Val = append(a.Val, value())
					}
				}
				a.RowPtr = append(a.RowPtr, len(a.Col))
			}
		}
		return a
	}
	op := fuzzOperands{a: build(m, k, data[4], 1), b: build(k, n, data[5], 2), s: build(k, k, data[4], 3)}
	op.dinv = make([]float64, op.s.Rows)
	for i := range op.dinv {
		op.dinv[i] = value()
	}
	op.omega = value()
	return op, true
}

// scaledCopy returns a with every value multiplied by s.
func scaledCopy(a *Matrix, s float64) *Matrix {
	b := a.Clone()
	b.Scale(s)
	return b
}

// FuzzProductPlan is the differential oracle of the SpGEMM plans: on
// fuzzed operands, a product plan and a smooth plan built at 1, 2 or 8
// workers and given three value passes at rotating worker counts must
// match the serial reference (refMultiply and refSmooth) bit for bit in
// pattern and values every time.
func FuzzProductPlan(f *testing.F) {
	workers := []int{1, 2, 8}
	f.Fuzz(func(t *testing.T, data []byte) {
		op, ok := decodeFuzzOperands(data)
		if !ok {
			t.Skip("input shorter than the header")
		}
		for name, m := range map[string]*Matrix{"A": op.a, "B": op.b, "S": op.s} {
			if err := m.Validate(); err != nil {
				t.Fatalf("decoded %s is invalid: %v", name, err)
			}
		}
		// Each pass gives A, B and S new values, but keeps their patterns.
		passes := [3][3]*Matrix{
			{op.a, op.b, op.s},
			{scaledCopy(op.a, -0.5), op.b, scaledCopy(op.s, -0.5)},
			{op.a, scaledCopy(op.b, -3), op.s},
		}
		var wantC, wantP [3]*Matrix
		for i, ops := range passes {
			wantC[i] = refMultiply(ops[0], ops[1])
			wantP[i] = refSmooth(ops[2], ops[1], op.dinv, op.omega)
		}
		for wi, w := range workers {
			pp, err := PlanMultiply(par.New(w), op.a, op.b)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := PlanSmoothProlongator(par.New(w), op.s, op.b)
			if err != nil {
				t.Fatal(err)
			}
			c, out := pp.NewMatrix(), sp.NewMatrix()
			for pass, ops := range passes {
				rw := workers[(wi+pass)%len(workers)]
				if err := pp.Replay(par.New(rw), ops[0], ops[1], c); err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, fmt.Sprintf("product plan@%d pass %d@%d", w, pass+1, rw), c, wantC[pass])
				if err := sp.Replay(par.New(rw), ops[2], ops[1], op.dinv, op.omega, out); err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, fmt.Sprintf("smooth plan@%d pass %d@%d", w, pass+1, rw), out, wantP[pass])
			}
		}
	})
}
