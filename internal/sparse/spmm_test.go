package sparse

import (
	"math"
	"testing"

	"mis2go/internal/par"
)

// testMatrix builds a deterministic sparse band matrix with rows rows and
// cols cols, ~5 entries per row, mixed-sign values.
func testMatrix(t *testing.T, rows, cols int) *Matrix {
	t.Helper()
	m := &Matrix{Rows: rows, Cols: cols}
	m.RowPtr = make([]int, rows+1)
	for i := 0; i < rows; i++ {
		for _, off := range []int{-7, -1, 0, 1, 9} {
			j := i + off
			if j < 0 || j >= cols {
				continue
			}
			m.Col = append(m.Col, int32(j))
			m.Val = append(m.Val, float64((i*31+j*17)%13)-6+0.25)
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("test matrix invalid: %v", err)
	}
	return m
}

// refSpMM is the scalar reference: per column, a single accumulator in
// index order — the summation order SpMM's kernels promise.
func refSpMM(a *Matrix, k int, x, y []float64) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < k; j++ {
			s := 0.0
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				s += a.Val[p] * x[int(a.Col[p])*k+j]
			}
			y[i*k+j] = s
		}
	}
}

func TestSpMMMatchesReference(t *testing.T) {
	for _, dims := range [][2]int{{300, 300}, {240, 90}, {90, 240}} {
		a := testMatrix(t, dims[0], dims[1])
		for _, k := range []int{1, 2, 3, 4, 5, 8, 11} {
			x := make([]float64, a.Cols*k)
			for i := range x {
				x[i] = float64((i*7)%19) - 9
			}
			want := make([]float64, a.Rows*k)
			refSpMM(a, k, x, want)
			for _, workers := range []int{1, 2, 8} {
				y := make([]float64, a.Rows*k)
				a.SpMM(par.New(workers), k, x, y)
				for i := range y {
					if k == 1 {
						// SpMV's unrolled kernel has its own fixed
						// summation order; compare within round-off.
						if math.Abs(y[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
							t.Fatalf("%dx%d k=%d w=%d: y[%d]=%g, want %g", dims[0], dims[1], k, workers, i, y[i], want[i])
						}
						continue
					}
					if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%dx%d k=%d w=%d: y[%d]=%g, want %g (bitwise)", dims[0], dims[1], k, workers, i, y[i], want[i])
					}
				}
			}
		}
	}
}

func TestSpMVResidualAndAddMatchUnfused(t *testing.T) {
	a := testMatrix(t, 500, 500)
	x := make([]float64, a.Cols)
	b := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%11) - 5
		b[i] = float64(i%7) - 3
	}
	ax := make([]float64, a.Rows)
	for _, workers := range []int{1, 2, 8} {
		rt := par.New(workers)
		a.SpMV(rt, x, ax)

		r := make([]float64, a.Rows)
		a.SpMVResidual(rt, b, x, r)
		for i := range r {
			want := b[i] - ax[i]
			if math.Float64bits(r[i]) != math.Float64bits(want) {
				t.Fatalf("w=%d: residual[%d]=%g, want %g (bitwise)", workers, i, r[i], want)
			}
		}

		y := make([]float64, a.Rows)
		for i := range y {
			y[i] = float64(i%5) - 2
		}
		want := make([]float64, a.Rows)
		for i := range want {
			want[i] = y[i] + ax[i]
		}
		a.SpMVAdd(rt, x, y)
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
				t.Fatalf("w=%d: add[%d]=%g, want %g (bitwise)", workers, i, y[i], want[i])
			}
		}
	}
}

func TestSpMMZeroAllocsSerial(t *testing.T) {
	a := testMatrix(t, 600, 600)
	for _, k := range []int{4, 8, 5} {
		x := make([]float64, a.Cols*k)
		y := make([]float64, a.Rows*k)
		for i := range x {
			x[i] = float64(i % 3)
		}
		rt := par.New(1)
		allocs := testing.AllocsPerRun(10, func() {
			a.SpMM(rt, k, x, y)
		})
		if allocs != 0 {
			t.Fatalf("SpMM k=%d: %v allocs/op, want 0", k, allocs)
		}
	}
}
