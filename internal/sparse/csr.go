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

// Dims returns the operator shape, implementing Operator.
func (c csrOf) Dims() (rows, cols int) { return c.rows, c.cols }

// NNZ returns the number of stored entries.
func (c csrOf) NNZ() int { return len(c.col) }

// SpMV computes y = A*x in parallel over rows. The serial fast path
// bypasses the closure API so single-worker calls allocate nothing.
//
//amg:hotpath
func (c csrOf) SpMV(rt *par.Runtime, x, y []float64) {
	if rt.Serial(c.rows) {
		c.spmvRange(x, y, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.spmvRange(x, y, lo, hi)
	})
}

// spmvRange is the SpMV kernel for rows [lo, hi): per-row slices for
// bounds-check elimination and a strict left-to-right single-accumulator
// inner loop. The summation order — term p added after term p-1, one
// accumulator — is the canonical per-row order every operator format
// (CSR here, SELL-C-sigma in sell.go) reproduces exactly, so switching
// formats never changes a single bit of any result; independent rows
// still give the out-of-order core plenty of ILP. The per-row order is a
// function of the row alone, keeping results identical for every worker
// count.
//
//amg:hotpath
func (c csrOf) spmvRange(x, y []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		cols := c.col[start:end]
		vals := c.val[start:end]
		var s float64
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i] = s
	}
}

// SpMVResidual computes r = b - A*x in one traversal of A, fusing the
// elementwise subtraction into the product pass (the V-cycle's residual
// step without the second full-vector sweep). r must not alias x.
//
//amg:hotpath
func (c csrOf) SpMVResidual(rt *par.Runtime, b, x, r []float64) {
	if rt.Serial(c.rows) {
		c.spmvResidualRange(b, x, r, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.spmvResidualRange(b, x, r, lo, hi)
	})
}

//amg:hotpath
func (c csrOf) spmvResidualRange(b, x, r []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		cols := c.col[start:end]
		vals := c.val[start:end]
		var s float64
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		r[i] = b[i] - s
	}
}

// SpMVAdd computes y += A*x in one traversal of A, fusing the correction
// add into the product pass (the V-cycle's prolongate-and-correct step
// without a scratch vector or second sweep). y must not alias x.
//
//amg:hotpath
func (c csrOf) SpMVAdd(rt *par.Runtime, x, y []float64) {
	if rt.Serial(c.rows) {
		c.spmvAddRange(x, y, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.spmvAddRange(x, y, lo, hi)
	})
}

//amg:hotpath
func (c csrOf) spmvAddRange(x, y []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		cols := c.col[start:end]
		vals := c.val[start:end]
		var s float64
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i] += s
	}
}

// JacobiSweep computes dst[i] = src[i] + omega*dinv[i]*(b[i] - (A src)[i])
// in one traversal of A — the fused damped-Jacobi sweep of the AMG
// V-cycle. src and dst must not alias (the sweep needs the full old
// iterate; the V-cycle ping-pongs two buffers).
//
//amg:hotpath
func (c csrOf) JacobiSweep(rt *par.Runtime, b, dinv []float64, omega float64, src, dst []float64) {
	if rt.Serial(c.rows) {
		c.jacobiSweepRange(b, dinv, omega, src, dst, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.jacobiSweepRange(b, dinv, omega, src, dst, lo, hi)
	})
}

// jacobiSweepRange is the fused Jacobi kernel for rows [lo, hi), with the
// same canonical left-to-right product accumulation as spmvRange.
//
//amg:hotpath
func (c csrOf) jacobiSweepRange(b, dinv []float64, omega float64, src, dst []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		cols := c.col[start:end]
		vals := c.val[start:end]
		var s float64
		for k, j := range cols {
			s += vals[k] * src[j]
		}
		dst[i] = src[i] + omega*dinv[i]*(b[i]-s)
	}
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
