package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"mis2go/internal/par"
)

// sellTestMatrix builds an irregular but valid CSR matrix: row i has
// (i*7+3)%13 entries at deterministic pseudo-random columns. Exercises
// mixed row lengths (including empty rows), edge chunks, and sort
// windows that actually reorder rows.
func sellTestMatrix(rows, cols int) *Matrix {
	a := &Matrix{Rows: rows, Cols: cols}
	a.RowPtr = make([]int, rows+1)
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < rows; i++ {
		nz := (i*7 + 3) % 13
		if nz > cols {
			nz = cols
		}
		seen := map[int32]bool{}
		var rowCols []int32
		for len(rowCols) < nz {
			c := int32(next() % uint64(cols))
			if !seen[c] {
				seen[c] = true
				rowCols = append(rowCols, c)
			}
		}
		// sort ascending (Validate invariant)
		for x := 1; x < len(rowCols); x++ {
			v := rowCols[x]
			y := x - 1
			for ; y >= 0 && rowCols[y] > v; y-- {
				rowCols[y+1] = rowCols[y]
			}
			rowCols[y+1] = v
		}
		for _, c := range rowCols {
			a.Col = append(a.Col, c)
			a.Val = append(a.Val, float64(int(next()%2000))/100-10)
		}
		a.RowPtr[i+1] = len(a.Col)
	}
	return a
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x, want %x (not bitwise equal)", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestSELLKernelsBitwiseMatchCSR pins the format-equivalence contract:
// every SELL kernel reproduces the CSR kernel bit for bit, across
// shapes (uniform, irregular, empty rows, non-multiple-of-C rows),
// sort windows, and worker counts.
func TestSELLKernelsBitwiseMatchCSR(t *testing.T) {
	mats := map[string]*Matrix{
		"irregular":  sellTestMatrix(1003, 800),
		"small":      sellTestMatrix(13, 9),
		"singlerow":  sellTestMatrix(1, 5),
		"widechunks": sellTestMatrix(64, 4000),
	}
	if err := mats["irregular"].Validate(); err != nil {
		t.Fatal(err)
	}
	for name, a := range mats {
		for _, sigma := range []int{sellSigma, sellC, 64, 1 << 20} {
			s, err := newSELL(par.New(2), a, sigma)
			if err != nil {
				t.Fatalf("%s sigma=%d: %v", name, sigma, err)
			}
			if s.NNZ() != a.NNZ() {
				t.Fatalf("%s: SELL has %d entries, CSR %d", name, s.NNZ(), a.NNZ())
			}
			x := make([]float64, a.Cols)
			b := make([]float64, a.Rows)
			for i := range x {
				x[i] = float64(i%17) - 8.25
			}
			for i := range b {
				b[i] = float64(i%11) - 5.5
			}
			for _, workers := range []int{1, 2, 8} {
				rt := par.New(workers)

				yCSR := make([]float64, a.Rows)
				ySELL := make([]float64, a.Rows)
				a.SpMV(rt, x, yCSR)
				s.SpMV(rt, x, ySELL)
				bitsEqual(t, name+"/SpMV", ySELL, yCSR)

				a.SpMVResidual(rt, b, x, yCSR)
				s.SpMVResidual(rt, b, x, ySELL)
				bitsEqual(t, name+"/SpMVResidual", ySELL, yCSR)

				copy(yCSR, b)
				copy(ySELL, b)
				a.SpMVAdd(rt, x, yCSR)
				s.SpMVAdd(rt, x, ySELL)
				bitsEqual(t, name+"/SpMVAdd", ySELL, yCSR)

				dinv := make([]float64, a.Rows)
				src := make([]float64, a.Rows)
				for i := range dinv {
					dinv[i] = 1 / (2 + float64(i%5))
					src[i] = float64(i%7) - 3
				}
				// JacobiSweep reads src both per row and per column, so it
				// only makes sense when the column range fits the row range.
				if a.Cols <= a.Rows {
					a.JacobiSweep(rt, b, dinv, 0.7, src, yCSR)
					s.JacobiSweep(rt, b, dinv, 0.7, src, ySELL)
					bitsEqual(t, name+"/JacobiSweep", ySELL, yCSR)
				}
			}
		}
	}
}

// refSELL is the serial reference conversion: each sort window ordered
// by a stable comparison sort on descending row length, then every chunk
// appended position by position, lane by lane. newSELL must reproduce
// every field at any worker count.
func refSELL(a *Matrix, sigma int) *SELL {
	n := a.Rows
	s := &SELL{rows: n, cols: a.Cols}
	s.perm = make([]int32, n)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	rowLen := func(r int32) int { return a.RowPtr[r+1] - a.RowPtr[r] }
	for lo := 0; lo < n; lo += sigma {
		hi := min(lo+sigma, n)
		slices.SortStableFunc(s.perm[lo:hi], func(p, q int32) int {
			return cmp.Compare(rowLen(q), rowLen(p)) // descending
		})
	}

	nchunks := (n + sellC - 1) / sellC
	s.chunkPtr = make([]int32, nchunks+1)
	s.width = make([]int32, nchunks)
	s.full = make([]int32, nchunks)
	s.cntPtr = make([]int32, nchunks+1)
	s.col = make([]int32, 0, len(a.Col))
	s.val = make([]float64, 0, len(a.Col))
	for c := 0; c < nchunks; c++ {
		lanes := s.perm[c*sellC : min(c*sellC+sellC, n)]
		w := 0
		for _, r := range lanes {
			w = max(w, rowLen(r))
		}
		full := 0
		if len(lanes) == sellC {
			full = rowLen(lanes[sellC-1]) // shortest lane: lanes are sorted
		}
		s.width[c] = int32(w)
		s.full[c] = int32(full)
		s.chunkPtr[c] = int32(len(s.col))
		s.cntPtr[c] = int32(len(s.cnt))
		for j := 0; j < w; j++ {
			m := 0
			for _, r := range lanes {
				if rowLen(r) <= j {
					break // descending lengths: the rest are shorter too
				}
				p := a.RowPtr[r] + j
				s.col = append(s.col, a.Col[p])
				s.val = append(s.val, a.Val[p])
				m++
			}
			s.cnt = append(s.cnt, uint8(m))
		}
	}
	s.chunkPtr[nchunks] = int32(len(s.col))
	s.cntPtr[nchunks] = int32(len(s.cnt))
	return s
}

// requireSELLEqual fails unless got and want hold the same layout, field
// by field, values compared bit for bit.
func requireSELLEqual(t *testing.T, name string, got, want *SELL) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: %dx%d, want %dx%d", name, got.rows, got.cols, want.rows, want.cols)
	}
	for _, f := range []struct {
		field     string
		got, want []int32
	}{
		{"perm", got.perm, want.perm},
		{"chunkPtr", got.chunkPtr, want.chunkPtr},
		{"width", got.width, want.width},
		{"full", got.full, want.full},
		{"cntPtr", got.cntPtr, want.cntPtr},
		{"col", got.col, want.col},
	} {
		if !slices.Equal(f.got, f.want) {
			t.Fatalf("%s: %s differs from the serial reference", name, f.field)
		}
	}
	if !slices.Equal(got.cnt, want.cnt) {
		t.Fatalf("%s: cnt differs from the serial reference", name)
	}
	bitsEqual(t, name+"/val", got.val, want.val)
}

// sellLayoutMatrices are the conversion witness's inputs: mixed row
// lengths with empty rows, edge chunks, one long row among short ones,
// and enough rows for several 4096-row windows and the parallel split.
func sellLayoutMatrices() map[string]*Matrix {
	skewed := sellTestMatrix(700, 600)
	long := &Matrix{Rows: 1, Cols: 600, RowPtr: []int{0, 600}}
	for j := range 600 {
		long.Col = append(long.Col, int32(j))
		long.Val = append(long.Val, float64(j%9)-4)
	}
	skewed = stackRows(stackRows(skewed, long), sellTestMatrix(300, 600))
	return map[string]*Matrix{
		"irregular":  sellTestMatrix(1003, 800),
		"small":      sellTestMatrix(13, 9),
		"singlerow":  sellTestMatrix(1, 5),
		"widechunks": sellTestMatrix(64, 4000),
		"windows":    sellTestMatrix(9000, 700),
		"skewed":     skewed,
		"empty":      {Rows: 17, Cols: 4, RowPtr: make([]int, 18)},
	}
}

// stackRows returns a with b's rows appended (same column count).
func stackRows(a, b *Matrix) *Matrix {
	c := &Matrix{Rows: a.Rows + b.Rows, Cols: a.Cols, RowPtr: slices.Clone(a.RowPtr)}
	c.Col = append(slices.Clone(a.Col), b.Col...)
	c.Val = append(slices.Clone(a.Val), b.Val...)
	for _, p := range b.RowPtr[1:] {
		c.RowPtr = append(c.RowPtr, a.NNZ()+p)
	}
	return c
}

// TestSELLConversionBitwise pins the conversion to its serial reference:
// every field of newSELL, at 1, 2 and 8 workers and for every sort
// window, equals refSELL's.
func TestSELLConversionBitwise(t *testing.T) {
	for name, a := range sellLayoutMatrices() {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sigma := range []int{sellSigma, sellC, 64, 1 << 20} {
			want := refSELL(a, sigma)
			for _, workers := range []int{1, 2, 8} {
				got, err := newSELL(par.New(workers), a, sigma)
				if err != nil {
					t.Fatal(err)
				}
				requireSELLEqual(t, fmt.Sprintf("%s sigma=%d workers=%d", name, sigma, workers), got, want)
			}
		}
	}
}

// TestSELLFillValuesBitwise: after a value change, FillValues at 1, 2
// and 8 workers leaves exactly the layout a fresh reference conversion
// of the new values has.
func TestSELLFillValuesBitwise(t *testing.T) {
	for name, a := range sellLayoutMatrices() {
		a2 := a.Clone()
		for p := range a2.Val {
			a2.Val[p] = a2.Val[p]*1.5 + 0.25
		}
		want := refSELL(a2, sellSigma)
		for _, workers := range []int{1, 2, 8} {
			rt := par.New(workers)
			s, err := newSELL(rt, a, sellSigma)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.FillValues(rt, a2); err != nil {
				t.Fatal(err)
			}
			requireSELLEqual(t, fmt.Sprintf("%s workers=%d", name, workers), s, want)
		}
	}
}

// TestSELLFillValues pins the values-only refresh path: new same-pattern
// values walked into the chunks with zero allocations at one worker,
// producing the same kernels as a fresh conversion.
func TestSELLFillValues(t *testing.T) {
	a := sellTestMatrix(500, 400)
	s, err := NewSELL(a)
	if err != nil {
		t.Fatal(err)
	}
	a2 := a.Clone()
	for p := range a2.Val {
		a2.Val[p] = a2.Val[p]*1.5 + 0.25
	}
	rt := par.New(1)
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.FillValues(rt, a2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FillValues: %v allocs/op, want 0", allocs)
	}
	fresh, err := NewSELL(a2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	y1 := make([]float64, a.Rows)
	y2 := make([]float64, a.Rows)
	s.SpMV(rt, x, y1)
	fresh.SpMV(rt, x, y2)
	bitsEqual(t, "refreshed SpMV", y1, y2)

	// Shape mismatches are clean errors.
	if err := s.FillValues(rt, sellTestMatrix(499, 400)); err == nil {
		t.Fatal("FillValues accepted a different shape")
	}
}

// TestSELLEmptyAndZero covers degenerate shapes: an empty matrix and an
// all-empty-row matrix convert and apply cleanly.
func TestSELLEmptyAndZero(t *testing.T) {
	for _, rows := range []int{0, 5} {
		a := &Matrix{Rows: rows, Cols: 3, RowPtr: make([]int, rows+1)}
		s, err := NewSELL(a)
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{1, 2, 3}
		y := make([]float64, rows)
		for i := range y {
			y[i] = 99
		}
		s.SpMV(par.New(1), x, y)
		for i := range y {
			if y[i] != 0 {
				t.Fatalf("empty-row SpMV: y[%d] = %g, want 0", i, y[i])
			}
		}
	}
}

// TestSELLZeroAllocKernels: the apply kernels of both operator formats
// — CSR and SELL — and the CSR diagonal read are allocation-free at one
// worker, kernel by kernel.
func TestSELLZeroAllocKernels(t *testing.T) {
	a := sellTestMatrix(2000, 2000)
	s, err := NewSELL(a)
	if err != nil {
		t.Fatal(err)
	}
	rt := par.New(1)
	x := make([]float64, 2000)
	y := make([]float64, 2000)
	b := make([]float64, 2000)
	dinv := make([]float64, 2000)
	for i := range x {
		x[i] = float64(i%7) - 3
		b[i] = float64(i % 5)
		dinv[i] = 0.5
	}
	for opName, op := range map[string]Operator{"csr": a, "sell": s} {
		kernels := map[string]func(){
			"SpMV":         func() { op.SpMV(rt, x, y) },
			"SpMVResidual": func() { op.SpMVResidual(rt, b, x, y) },
			"SpMVAdd":      func() { op.SpMVAdd(rt, x, y) },
			"JacobiSweep":  func() { op.JacobiSweep(rt, b, dinv, 0.7, x, y) },
		}
		for name, fn := range kernels {
			if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
				t.Fatalf("%s/%s: %v allocs/op, want 0", opName, name, allocs)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { a.DiagonalInto(rt, y) }); allocs != 0 {
		t.Fatalf("csr/Diagonal: %v allocs/op, want 0", allocs)
	}
}

// TestChooseFormat pins the auto heuristic: regular large patterns pick
// SELL, small or skewed ones stay CSR.
func TestChooseFormat(t *testing.T) {
	// Uniform 5-entry rows, large: SELL.
	n := 4096
	u := bandMatrix(n)
	if f := ChooseFormat(u); f != FormatSELL {
		t.Fatalf("uniform: ChooseFormat = %v, want sell", f)
	}
	// Small: CSR regardless of regularity.
	small := &Matrix{Rows: 16, Cols: 16, RowPtr: make([]int, 17)}
	if f := ChooseFormat(small); f != FormatCSR {
		t.Fatalf("small: ChooseFormat = %v, want csr", f)
	}
	// Highly skewed: one dense row among singletons.
	sk := &Matrix{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		sk.Col = append(sk.Col, int32(j))
		sk.Val = append(sk.Val, 1)
	}
	sk.RowPtr[1] = n
	for i := 1; i < n; i++ {
		sk.Col = append(sk.Col, int32(i))
		sk.Val = append(sk.Val, 1)
		sk.RowPtr[i+1] = len(sk.Col)
	}
	if f := ChooseFormat(sk); f != FormatCSR {
		t.Fatalf("skewed: ChooseFormat = %v, want csr", f)
	}
}

// bandMatrix returns the n x n periodic 5-point band matrix: uniform
// 5-entry rows, which ChooseFormat puts on SELL once n >= 2048.
func bandMatrix(n int) *Matrix {
	u := &Matrix{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for d := -2; d <= 2; d++ {
			u.Col = append(u.Col, int32((i+d+n)%n))
			u.Val = append(u.Val, 1)
		}
		u.RowPtr[i+1] = len(u.Col)
	}
	return u
}

// TestNewOperatorDispatch: NewOperator returns the matrix itself where
// ChooseFormat keeps CSR and a SELL conversion where it picks SELL.
func TestNewOperatorDispatch(t *testing.T) {
	a := sellTestMatrix(100, 100)
	if op := NewOperator(a); op != Operator(a) {
		t.Fatalf("small: got %T, want the CSR matrix itself", op)
	}
	if _, ok := NewOperator(bandMatrix(4096)).(*SELL); !ok {
		t.Fatal("large regular: NewOperator kept CSR, want *SELL")
	}
}

// TestNewOperatorPrecDispatch pins the compatibility shim: it accepts
// only (FormatAuto, 0, PrecisionF64), where it builds what NewOperator
// builds, and rejects every other triple.
func TestNewOperatorPrecDispatch(t *testing.T) {
	for _, a := range []*Matrix{sellTestMatrix(100, 100), bandMatrix(4096)} {
		got, err := NewOperatorPrec(a, FormatAuto, 0, PrecisionF64)
		if err != nil {
			t.Fatal(err)
		}
		if want := NewOperator(a); fmt.Sprintf("%T", got) != fmt.Sprintf("%T", want) {
			t.Fatalf("%d rows: NewOperatorPrec gave %T, NewOperator %T", a.Rows, got, want)
		}
	}
	a := sellTestMatrix(100, 100)
	for _, bad := range []struct {
		format Format
		sigma  int
		prec   Precision
	}{
		{FormatCSR, 0, PrecisionF64},
		{FormatSELL, 0, PrecisionF64},
		{Format(3), 0, PrecisionF64},
		{FormatAuto, sellC, PrecisionF64},
		{FormatAuto, sellSigma, PrecisionF64},
		{FormatAuto, -1, PrecisionF64},
		{FormatAuto, 0, PrecisionF64 + 1},
		{FormatAuto, 0, -1},
	} {
		if op, err := NewOperatorPrec(a, bad.format, bad.sigma, bad.prec); err == nil || op != nil {
			t.Fatalf("NewOperatorPrec(%v, %d, %d) = %T, %v: want an error", bad.format, bad.sigma, bad.prec, op, err)
		}
	}
}
