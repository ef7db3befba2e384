package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mis2go/internal/par"
)

// fuzzProductOperands decodes a fuzz input into a conforming pair A, B.
// Layout: data[0], data[1] and data[2] give A's rows, the inner
// dimension and B's columns of one tile (1..40 each); data[3] the tile
// count (1..64, A and B stacked block-diagonally, so larger inputs cross
// the parallel split threshold); data[4] and data[5] the densities of A
// and B (0 stores nothing, 255 stores every entry); data[6] seeds the
// position hash that picks the stored entries. The rest is a stream of
// int16 value codes, taken in turn by the stored entries of A and then
// B and reused from the start when it runs out: a value is code/3, the
// most negative code stands for -0, and an empty stream makes every
// value 1. Returns nil, nil for inputs shorter than the header.
func fuzzProductOperands(data []byte) (*Matrix, *Matrix) {
	if len(data) < 7 {
		return nil, nil
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
	return build(m, k, data[4], 1), build(k, n, data[5], 2)
}

// scaledCopy returns a with every value multiplied by s.
func scaledCopy(a *Matrix, s float64) *Matrix {
	b := a.Clone()
	b.Scale(s)
	return b
}

// FuzzProductPlan is the differential oracle of the SpGEMM plan
// lifecycle: on fuzzed operands, a plan built at 1, 2 or 8 workers and
// given three value passes (mark/acc, then the gather schedule build
// and its replay) at rotating worker counts must match Multiply bit for
// bit in pattern and values every time. A product within
// maxScheduleFlopsFactor holds a schedule from the second pass on; one
// over it never does.
func FuzzProductPlan(f *testing.F) {
	workers := []int{1, 2, 8}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzProductOperands(data)
		if a == nil {
			t.Skip("input shorter than the header")
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("decoded A is invalid: %v", err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("decoded B is invalid: %v", err)
		}
		passes := [3][2]*Matrix{{a, b}, {scaledCopy(a, -0.5), b}, {a, scaledCopy(b, -3)}}
		var want [3]*Matrix
		for i, ops := range passes {
			c, err := Multiply(par.New(1), ops[0], ops[1])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = c
		}
		flops := 0
		for _, row := range a.Col {
			flops += b.RowPtr[row+1] - b.RowPtr[row]
		}
		scheduled := flops <= maxScheduleFlopsFactor*(a.NNZ()+b.NNZ()+want[0].NNZ())
		for wi, w := range workers {
			pl, err := PlanMultiply(par.New(w), a, b)
			if err != nil {
				t.Fatal(err)
			}
			c := pl.NewMatrix()
			for pass, ops := range passes {
				rw := workers[(wi+pass)%len(workers)]
				if err := pl.Numeric(par.New(rw), ops[0], ops[1], c); err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, fmt.Sprintf("plan@%d pass %d@%d", w, pass+1, rw), c, want[pass])
				if got := pl.hasSchedule(); got != (scheduled && pass > 0) {
					t.Fatalf("plan@%d after pass %d: schedule %v (%d flops, within bound %v)", w, pass+1, got, flops, scheduled)
				}
				// The schedule decision is taken once, on the second
				// pass: a third pass neither builds nor re-tries one.
				if want := min(pass+1, 2); int(pl.passes) != want {
					t.Fatalf("plan@%d after pass %d: plan records %d passes, want %d", w, pass+1, pl.passes, want)
				}
			}
		}
	})
}
