package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mis2go/internal/par"
)

// randomMatrix builds a random rows x cols CSR matrix with about density
// fraction of entries, deterministic in seed.
func randomMatrix(rows, cols int, density float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := &Matrix{Rows: rows, Cols: cols}
	m.RowPtr = make([]int, rows+1)
	for i := 0; i < rows; i++ {
		prev := int32(-1)
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				m.Col = append(m.Col, int32(j))
				m.Val = append(m.Val, rng.NormFloat64())
				prev = int32(j)
			}
		}
		_ = prev
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}

func toDenseSlice(a *Matrix) []float64 {
	d := make([]float64, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			d[i*a.Cols+int(a.Col[p])] = a.Val[p]
		}
	}
	return d
}

func denseMul(a, b []float64, n, k, m int) []float64 {
	c := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for kk := 0; kk < k; kk++ {
			av := a[i*k+kk]
			if av == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				c[i*m+j] += av * b[kk*m+j]
			}
		}
	}
	return c
}

// planProduct forms A*B the way a cold build does: plan, then replay
// into the plan's result matrix.
func planProduct(t *testing.T, rt *par.Runtime, a, b *Matrix) *Matrix {
	t.Helper()
	pl, err := PlanMultiply(rt, a, b)
	if err != nil {
		t.Fatal(err)
	}
	c := pl.NewMatrix()
	if err := pl.Replay(rt, a, b, c); err != nil {
		t.Fatal(err)
	}
	return c
}

// planRAP forms R*A*P through a RAP plan and one replay.
func planRAP(t *testing.T, rt *par.Runtime, r, a, p *Matrix) *Matrix {
	t.Helper()
	pl, err := PlanRAP(rt, r, a, p)
	if err != nil {
		t.Fatal(err)
	}
	c := pl.NewMatrix()
	if err := pl.Replay(rt, r, a, p, c); err != nil {
		t.Fatal(err)
	}
	return c
}

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

func TestSpMVAgainstDense(t *testing.T) {
	rt := par.New(4)
	f := func(seed int64) bool {
		rows := 1 + int(uint64(seed)%40)
		cols := 1 + int(uint64(seed)%37)
		a := randomMatrix(rows, cols, 0.3, seed)
		x := make([]float64, cols)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		y := make([]float64, rows)
		a.SpMV(rt, x, y)
		d := toDenseSlice(a)
		want := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want[i] += d[i*cols+j] * x[j]
			}
		}
		return almostEqual(y, want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

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

// TestMultiplyAgainstDense checks product plans against a dense A*B and
// smooth plans against a dense (I - omega*D^{-1}*A)*P0, to a tolerance.
func TestMultiplyAgainstDense(t *testing.T) {
	rt := par.New(4)
	f := func(seed int64) bool {
		n := 1 + int(uint64(seed)%25)
		k := 1 + int(uint64(seed)%20)
		m := 1 + int(uint64(seed)%22)
		a := randomMatrix(n, k, 0.3, seed)
		b := randomMatrix(k, m, 0.3, seed+1)
		c := planProduct(t, rt, a, b)
		if c.Validate() != nil {
			return false
		}
		want := denseMul(toDenseSlice(a), toDenseSlice(b), n, k, m)
		if !almostEqual(toDenseSlice(c), want, 1e-10) {
			return false
		}

		s := randomMatrix(k, k, 0.3, seed+2)
		dinv := make([]float64, k)
		for i := range dinv {
			dinv[i] = 1 / (1 + float64(i%7))
		}
		const omega = 0.61
		pl, err := PlanSmoothProlongator(rt, s, b)
		if err != nil {
			return false
		}
		out := pl.NewMatrix()
		if pl.Replay(rt, s, b, dinv, omega, out) != nil || out.Validate() != nil {
			return false
		}
		smooth := denseMul(toDenseSlice(s), toDenseSlice(b), k, k, m)
		db := toDenseSlice(b)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				smooth[i*m+j] = db[i*m+j] - omega*dinv[i]*smooth[i*m+j]
			}
		}
		return almostEqual(toDenseSlice(out), smooth, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiplyDimensionMismatch: a RAP plan rejects operands whose
// inner dimensions do not chain, in either of its two products.
func TestMultiplyDimensionMismatch(t *testing.T) {
	rt := par.New(2)
	a := randomMatrix(6, 6, 0.5, 1)
	p := randomMatrix(6, 3, 0.5, 2)
	if _, err := PlanRAP(rt, p.Transpose(), a, randomMatrix(5, 3, 0.5, 3)); err == nil {
		t.Fatal("A*P dimension mismatch not reported")
	}
	if _, err := PlanRAP(rt, randomMatrix(3, 5, 0.5, 4), a, p); err == nil {
		t.Fatal("R*(AP) dimension mismatch not reported")
	}
}

// TestMultiplyDeterministicAcrossThreads: a product planned and replayed
// at 2 or 8 workers equals the 1-worker result in pattern and value bits.
func TestMultiplyDeterministicAcrossThreads(t *testing.T) {
	a := randomMatrix(80, 60, 0.1, 3)
	b := randomMatrix(60, 70, 0.1, 4)
	ref := planProduct(t, par.New(1), a, b)
	for _, w := range []int{2, 8} {
		matricesEqual(t, fmt.Sprintf("product@%d", w), planProduct(t, par.New(w), a, b), ref)
	}
}

func TestTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rows := 1 + int(uint64(seed)%30)
		cols := 1 + int(uint64(seed)%30)
		a := randomMatrix(rows, cols, 0.25, seed)
		at := a.Transpose()
		if at.Validate() != nil || at.Rows != cols || at.Cols != rows {
			return false
		}
		da := toDenseSlice(a)
		dt := toDenseSlice(at)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if da[i*cols+j] != dt[j*rows+i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRAPGalerkin(t *testing.T) {
	rt := par.New(4)
	a := randomMatrix(12, 12, 0.3, 8)
	p := randomMatrix(12, 4, 0.4, 9)
	r := p.Transpose()
	c := planRAP(t, rt, r, a, p)
	da, dp := toDenseSlice(a), toDenseSlice(p)
	ap := denseMul(da, dp, 12, 12, 4)
	dr := toDenseSlice(r)
	want := denseMul(dr, ap, 4, 12, 4)
	if !almostEqual(toDenseSlice(c), want, 1e-10) {
		t.Fatal("RAP mismatch with dense reference")
	}
}

func TestDiagonal(t *testing.T) {
	a := &Matrix{Rows: 3, Cols: 3,
		RowPtr: []int{0, 2, 3, 5},
		Col:    []int32{0, 2, 1, 0, 2},
		Val:    []float64{4, 1, 5, 2, 6},
	}
	d := a.Diagonal()
	if d[0] != 4 || d[1] != 5 || d[2] != 6 {
		t.Fatalf("Diagonal = %v", d)
	}
}

func TestGraphFromMatrix(t *testing.T) {
	// 3x3 with diagonal and off-diagonals (0,1), (1,2) stored one-sided.
	a := &Matrix{Rows: 3, Cols: 3,
		RowPtr: []int{0, 2, 3, 4},
		Col:    []int32{0, 1, 1, 2},
		Val:    []float64{2, -1, 2, 2},
	}
	g := a.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge 0-1 missing (symmetrization)")
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 2) == false && g.NumEdges() != 2 {
		t.Fatal("unexpected structure")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	a := randomMatrix(5, 5, 0.5, 10)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := a.Clone()
	bad.Col[0] = 99
	if bad.Validate() == nil {
		t.Fatal("out-of-range column not caught")
	}
	bad = a.Clone()
	if len(bad.Val) > 0 {
		bad.Val[0] = math.NaN()
		if bad.Validate() == nil {
			t.Fatal("NaN not caught")
		}
	}
	bad = a.Clone()
	bad.RowPtr[1] = -1
	if bad.Validate() == nil {
		t.Fatal("bad RowPtr not caught")
	}
}

func TestIdentityAndScaleClone(t *testing.T) {
	id := identity(4)
	if id.Validate() != nil || id.NNZ() != 4 {
		t.Fatal("identity malformed")
	}
	c := id.Clone()
	c.Scale(3)
	if id.Val[0] != 1 || c.Val[0] != 3 {
		t.Fatal("Clone/Scale aliasing or arithmetic wrong")
	}
}

func TestDenseLUSolve(t *testing.T) {
	// Well-conditioned SPD-ish system with known solution.
	n := 30
	a := &Matrix{Rows: n, Cols: n}
	a.RowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		if i > 0 {
			a.Col = append(a.Col, int32(i-1))
			a.Val = append(a.Val, -1)
		}
		a.Col = append(a.Col, int32(i))
		a.Val = append(a.Val, 4)
		if i < n-1 {
			a.Col = append(a.Col, int32(i+1))
			a.Val = append(a.Val, -1)
		}
		a.RowPtr[i+1] = len(a.Col)
	}
	d, err := NewDense(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FillFrom(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Factorize(); err != nil {
		t.Fatal(err)
	}
	xWant := make([]float64, n)
	for i := range xWant {
		xWant[i] = math.Sin(float64(i))
	}
	b := make([]float64, n)
	a.SpMV(par.New(1), xWant, b)
	x := make([]float64, n)
	d.Solve(b, x)
	if !almostEqual(x, xWant, 1e-10) {
		t.Fatal("LU solve inaccurate")
	}
}

func TestDenseSingularDetected(t *testing.T) {
	d := &Dense{N: 2, Data: []float64{1, 2, 2, 4}}
	if err := d.Factorize(); err == nil {
		t.Fatal("singular matrix not detected")
	}
}

func TestFillFromRequiresSquare(t *testing.T) {
	a := randomMatrix(3, 4, 0.5, 11)
	d, err := NewDense(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FillFrom(a); err == nil {
		t.Fatal("non-square FillFrom not rejected")
	}
}

// refValidate is the serial reference of Validate: the header checks,
// then RowPtr monotonicity over every row, then row by row its columns
// before its values. ValidateWith must return the same error text at
// any worker count.
func refValidate(a *Matrix) error {
	if a.Rows < 0 || a.Cols < 0 {
		return errors.New("sparse: negative dimension")
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Col) || len(a.Col) != len(a.Val) {
		return errors.New("sparse: inconsistent RowPtr/Col/Val lengths")
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.Col[p] < 0 || int(a.Col[p]) >= a.Cols {
				return fmt.Errorf("sparse: row %d has out-of-range column %d", i, a.Col[p])
			}
			if p > a.RowPtr[i] && a.Col[p-1] >= a.Col[p] {
				return fmt.Errorf("sparse: row %d not sorted/duplicate-free", i)
			}
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if math.IsNaN(a.Val[p]) || math.IsInf(a.Val[p], 0) {
				return fmt.Errorf("sparse: non-finite value at row %d", i)
			}
		}
	}
	return nil
}

// plantDefect damages row i of a by kind: 0 an out-of-range column, 1
// a duplicate column, 2 a column order swap, 3 a NaN, 4 an Inf, 5 a
// decreasing RowPtr. Rows too short for a kind are left alone.
func plantDefect(a *Matrix, i, kind int) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	switch {
	case kind == 0 && hi > lo:
		a.Col[hi-1] = int32(a.Cols)
	case kind == 1 && hi-lo >= 2:
		a.Col[hi-1] = a.Col[hi-2]
	case kind == 2 && hi-lo >= 2:
		a.Col[lo], a.Col[lo+1] = a.Col[lo+1], a.Col[lo]
	case kind == 3 && hi > lo:
		a.Val[lo] = math.NaN()
	case kind == 4 && hi > lo:
		a.Val[hi-1] = math.Inf(-1)
	case kind == 5 && i > 0:
		a.RowPtr[i] = a.RowPtr[i+1] + 1
	}
}

// TestValidateBitwiseMatchesReference plants several defects in
// different row blocks of a 5000-row matrix and requires ValidateWith's
// error text at 1, 2 and 8 workers to equal the serial reference's:
// the lowest failing row, RowPtr monotonicity before any entry, and
// within a row its columns before its values.
func TestValidateBitwiseMatchesReference(t *testing.T) {
	base := randomMatrix(5000, 40, 0.1, 46)
	rng := rand.New(rand.NewSource(46))
	cases := map[string]*Matrix{"clean": base}
	// Fixed plantings: a later RowPtr defect outranks an earlier column
	// defect, and in one row a column defect outranks a value defect.
	mono := base.Clone()
	plantDefect(mono, 300, 0)
	plantDefect(mono, 4100, 5)
	plantDefect(mono, 2700, 5)
	cases["monotone-first"] = mono
	sameRow := base.Clone()
	plantDefect(sameRow, 3500, 3)
	plantDefect(sameRow, 3500, 2)
	plantDefect(sameRow, 4800, 0)
	cases["columns-before-values"] = sameRow
	for name, msg := range map[string]string{
		"monotone-first":        "RowPtr not monotone at row 2700",
		"columns-before-values": "row 3500 not sorted",
	} {
		if err := refValidate(cases[name]); err == nil || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s: reference gives %v, want %q", name, err, msg)
		}
	}
	for c := 0; c < 40; c++ {
		a := base.Clone()
		for range 1 + rng.Intn(4) {
			plantDefect(a, rng.Intn(a.Rows), rng.Intn(6))
		}
		cases[fmt.Sprintf("random%d", c)] = a
	}
	for name, a := range cases {
		want := refValidate(a)
		if name != "clean" && want == nil {
			continue // every planted row was too short for its kind
		}
		for _, workers := range []int{1, 2, 8} {
			got := a.ValidateWith(par.New(workers))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, %d workers: %v, want %v", name, workers, got, want)
			}
		}
	}
}
