package sparse

import "mis2go/internal/par"

// csrOf is the CSR kernel set — the one body of every CSR kernel.
// *Matrix forwards its kernels to a csrOf view of its own fields. The
// kernels take value receivers so that the *Matrix forwards build the
// view on the stack and the closure handed to the pool captures a copy,
// never a heap-escaping pointer.
type csrOf struct {
	rows, cols int
	rowPtr     []int   // shared with the source matrix
	col        []int32 // shared with the source matrix
	val        []float64
}

// epilogue names what a product kernel does with row i's product
// s = (A x)_i. Every format runs one traversal for all four: CSR picks
// the epilogue's row loop once per call, SELL applies it per row through
// one inlined switch (epilogueArgs.put).
type epilogue uint8

const (
	epSet      epilogue = iota // y[i] = s
	epResidual                 // y[i] = b[i] - s
	epAdd                      // y[i] += s
	epJacobi                   // y[i] = x[i] + omega*dinv[i]*(b[i] - s)
)

// product runs one product kernel in parallel over rows: y's rows get
// (A x)_i combined by the epilogue k with b, dinv and omega (operands
// the epilogue does not read may be nil). The serial fast path bypasses
// the closure API so single-worker calls allocate nothing.
//
//amg:hotpath
func (c csrOf) product(rt *par.Runtime, k epilogue, b, dinv []float64, omega float64, x, y []float64) {
	if rt.Serial(c.rows) {
		c.productRange(k, b, dinv, omega, x, y, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.productRange(k, b, dinv, omega, x, y, lo, hi)
	})
}

// productRange is the product kernel for rows [lo, hi). The epilogue
// switch sits outside the row loops, so each loop is a plain row sweep
// around the inlined rowDot.
//
//amg:hotpath
func (c csrOf) productRange(k epilogue, b, dinv []float64, omega float64, x, y []float64, lo, hi int) {
	switch k {
	case epSet:
		for i := lo; i < hi; i++ {
			y[i] = c.rowDot(x, i)
		}
	case epResidual:
		for i := lo; i < hi; i++ {
			y[i] = b[i] - c.rowDot(x, i)
		}
	case epAdd:
		for i := lo; i < hi; i++ {
			y[i] += c.rowDot(x, i)
		}
	case epJacobi:
		for i := lo; i < hi; i++ {
			y[i] = x[i] + omega*dinv[i]*(b[i]-c.rowDot(x, i))
		}
	}
}

// rowDot is row i's product with x: per-row slices for bounds-check
// elimination and a strict left-to-right single-accumulator inner loop.
// The summation order — term p added after term p-1, one accumulator —
// is the canonical per-row order every operator format (CSR here,
// SELL-C-sigma in sell.go) reproduces exactly, so switching formats
// never changes a single bit of any result; independent rows still give
// the out-of-order core plenty of ILP. The per-row order is a function
// of the row alone, keeping results identical for every worker count.
// The pointer receiver matters: a value receiver would copy the view for
// every inlined row.
//
//amg:hotpath
func (c *csrOf) rowDot(x []float64, i int) float64 {
	start, end := c.rowPtr[i], c.rowPtr[i+1]
	cols := c.col[start:end]
	vals := c.val[start:end]
	var s float64
	for k, j := range cols {
		s += vals[k] * x[j]
	}
	return s
}

// DiagonalInto fills d with the diagonal entries (zero where absent)
// in parallel over rows. The serial fast path
// bypasses the closure API so re-setup loops stay allocation-free.
//
//amg:hotpath
func (c csrOf) DiagonalInto(rt *par.Runtime, d []float64) {
	if rt.Serial(c.rows) {
		c.diagonalRange(d, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.diagonalRange(d, lo, hi)
	})
}

//amg:hotpath
func (c csrOf) diagonalRange(d []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		d[i] = 0
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			if int(c.col[p]) == i {
				d[i] = c.val[p]
				break
			}
		}
	}
}
