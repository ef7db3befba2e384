package sparse

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mis2go/internal/par"
)

func TestMultiplyByIdentity(t *testing.T) {
	rt := par.New(4)
	a := randomMatrix(15, 15, 0.3, 21)
	id := identity(15)
	left := planProduct(t, rt, id, a)
	right := planProduct(t, rt, a, id)
	da := toDenseSlice(a)
	if !almostEqual(toDenseSlice(left), da, 1e-14) || !almostEqual(toDenseSlice(right), da, 1e-14) {
		t.Fatal("identity multiplication changed the matrix")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rows := 1 + int(uint64(seed)%25)
		cols := 1 + int(uint64(seed)%25)
		a := randomMatrix(rows, cols, 0.3, seed)
		att := a.Transpose().Transpose()
		if att.Rows != a.Rows || att.NNZ() != a.NNZ() {
			return false
		}
		for i := range a.Col {
			if a.Col[i] != att.Col[i] || a.Val[i] != att.Val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyAssociativity(t *testing.T) {
	rt := par.New(4)
	a := randomMatrix(8, 10, 0.4, 1)
	b := randomMatrix(10, 6, 0.4, 2)
	c := randomMatrix(6, 9, 0.4, 3)
	abc1 := planProduct(t, rt, planProduct(t, rt, a, b), c)
	abc2 := planProduct(t, rt, a, planProduct(t, rt, b, c))
	if !almostEqual(toDenseSlice(abc1), toDenseSlice(abc2), 1e-10) {
		t.Fatal("(AB)C != A(BC)")
	}
}

func TestSpMVEmptyRows(t *testing.T) {
	// Matrix with some empty rows.
	a := &Matrix{Rows: 4, Cols: 4,
		RowPtr: []int{0, 1, 1, 2, 2},
		Col:    []int32{0, 3},
		Val:    []float64{2, 5},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 1, 1, 1}
	y := make([]float64, 4)
	a.SpMV(par.New(1), x, y)
	want := []float64{2, 0, 5, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

// TestSpMVFusedEdgeCases pins the fused kernels' behavior on degenerate
// shapes: an empty matrix (n = 0) and all-empty rows must run cleanly
// (residual = b, add = no-op), at one worker and several.
func TestSpMVFusedEdgeCases(t *testing.T) {
	empty := &Matrix{Rows: 0, Cols: 0, RowPtr: []int{0}}
	allEmpty := &Matrix{Rows: 3, Cols: 3, RowPtr: []int{0, 0, 0, 0}}
	for _, workers := range []int{1, 4} {
		rt := par.New(workers)

		// n = 0: every kernel is a no-op on zero-length vectors.
		empty.SpMVResidual(rt, nil, nil, nil)
		empty.SpMVAdd(rt, nil, nil)
		empty.SpMV(rt, nil, nil)

		// All-empty rows: A = 0, so r = b and y += 0.
		b := []float64{1, -2, 3}
		x := []float64{7, 8, 9}
		r := make([]float64, 3)
		allEmpty.SpMVResidual(rt, b, x, r)
		for i := range b {
			if r[i] != b[i] {
				t.Fatalf("workers %d: residual[%d] = %g, want b[%d] = %g", workers, i, r[i], i, b[i])
			}
		}
		y := []float64{4, 5, 6}
		allEmpty.SpMVAdd(rt, x, y)
		want := []float64{4, 5, 6}
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("workers %d: add y[%d] = %g, want %g", workers, i, y[i], want[i])
			}
		}
	}
}

// TestSpMVFusedLengthMismatchPanics documents the contract for
// mis-sized vectors: the fused kernels index straight into their
// arguments, so an undersized vector is a bounds panic, not silent
// truncation.
func TestSpMVFusedLengthMismatchPanics(t *testing.T) {
	a := &Matrix{Rows: 3, Cols: 3,
		RowPtr: []int{0, 1, 2, 3},
		Col:    []int32{0, 1, 2},
		Val:    []float64{1, 1, 1},
	}
	rt := par.New(1)
	full := []float64{1, 2, 3}
	short := []float64{1}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected a bounds panic for a mis-sized vector", name)
			}
		}()
		f()
	}
	mustPanic("SpMVResidual short r", func() { a.SpMVResidual(rt, full, full, short) })
	mustPanic("SpMVResidual short b", func() { a.SpMVResidual(rt, short, full, make([]float64, 3)) })
	mustPanic("SpMVResidual short x", func() { a.SpMVResidual(rt, full, short, make([]float64, 3)) })
	mustPanic("SpMVAdd short y", func() { a.SpMVAdd(rt, full, short) })
	mustPanic("SpMVAdd short x", func() { a.SpMVAdd(rt, short, make([]float64, 3)) })
}

func TestDenseSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%20)
		// Diagonally dominant random matrix: always nonsingular.
		sum := shiftDiagonal(randomMatrix(n, n, 0.4, seed), float64(n)+5)
		dense, err := NewDense(n)
		if err != nil || dense.FillFrom(sum) != nil {
			return false
		}
		if dense.Factorize() != nil {
			return false
		}
		xWant := make([]float64, n)
		for i := range xWant {
			xWant[i] = float64(i%5) - 2
		}
		b := make([]float64, n)
		sum.SpMV(par.New(1), xWant, b)
		x := make([]float64, n)
		dense.Solve(b, x)
		return almostEqual(x, xWant, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphSymmetrizesUnsymmetricPattern(t *testing.T) {
	// Upper-triangular pattern only.
	a := &Matrix{Rows: 3, Cols: 3,
		RowPtr: []int{0, 2, 3, 3},
		Col:    []int32{1, 2, 2},
		Val:    []float64{1, 1, 1},
	}
	g := a.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 0) || !g.HasEdge(2, 1) {
		t.Fatal("reverse edges missing after symmetrization")
	}
}

func TestRAPShrinksDimensions(t *testing.T) {
	rt := par.New(2)
	a := randomMatrix(20, 20, 0.2, 30)
	p := &Matrix{Rows: 20, Cols: 5}
	p.RowPtr = make([]int, 21)
	for i := 0; i < 20; i++ {
		p.Col = append(p.Col, int32(i/4))
		p.Val = append(p.Val, 1)
		p.RowPtr[i+1] = i + 1
	}
	c := planRAP(t, rt, p.Transpose(), a, p)
	if c.Rows != 5 || c.Cols != 5 {
		t.Fatalf("RAP shape %dx%d", c.Rows, c.Cols)
	}
	// Galerkin sum property for piecewise-constant P: C_total = A_total.
	var sa, sc float64
	for _, v := range a.Val {
		sa += v
	}
	for _, v := range c.Val {
		sc += v
	}
	if math.Abs(sa-sc) > 1e-10*(1+math.Abs(sa)) {
		t.Fatalf("Galerkin sum %g != %g", sc, sa)
	}
}

func TestValidateNonSquareOK(t *testing.T) {
	a := randomMatrix(3, 7, 0.5, 2)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleZeroAndNegative(t *testing.T) {
	a := randomMatrix(5, 5, 0.5, 11)
	b := a.Clone()
	b.Scale(0)
	for _, v := range b.Val {
		if v != 0 {
			t.Fatal("scale 0 left nonzero")
		}
	}
	c := a.Clone()
	c.Scale(-1)
	for i := range c.Val {
		if c.Val[i] != -a.Val[i] {
			t.Fatal("scale -1 wrong")
		}
	}
}

// TestValidateRejectsNonMonotoneRowPtrWithoutPanic: a RowPtr whose
// intermediate pointer overruns the entry arrays while the final one
// checks out (e.g. [0, 3, 2] over 2 entries) must be a clean error —
// the seed Validate scanned row 0's out-of-bounds range before reaching
// row 1's monotonicity check and panicked on the very input it exists
// to reject.
func TestValidateRejectsNonMonotoneRowPtrWithoutPanic(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2,
		RowPtr: []int{0, 3, 2}, Col: []int32{0, 1}, Val: []float64{2, 2}}
	if err := a.Validate(); err == nil {
		t.Fatal("non-monotone RowPtr accepted")
	} else if !strings.Contains(err.Error(), "monotone") {
		t.Fatalf("error not descriptive: %v", err)
	}
}
