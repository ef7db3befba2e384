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

// SpMM computes the multi-RHS product Y = A*X for k right-hand sides.
// X and Y use the interleaved (column-blocked) layout: the k values of
// row i are contiguous at [i*k : (i+1)*k], so one traversal of A serves
// all k right-hand sides and every gather from X touches one contiguous
// block. len(x) must be cols*k and len(y) rows*k. Specialized
// register-accumulator kernels handle the 4- and 8-wide blocks the
// batched solvers use; other widths accumulate directly into Y's row
// block. Deterministic: per-row summation order is fixed.
//
//amg:hotpath
func (c csrOf) SpMM(rt *par.Runtime, k int, x, y []float64) {
	if k == 1 {
		c.SpMV(rt, x, y)
		return
	}
	if rt.Serial(c.rows) {
		c.spmmDispatch(k, x, y, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.spmmDispatch(k, x, y, lo, hi)
	})
}

// spmmDispatch selects the width-specialized kernel for rows [lo, hi).
//
//amg:hotpath
func (c csrOf) spmmDispatch(k int, x, y []float64, lo, hi int) {
	switch k {
	case 4:
		c.spmm4Range(x, y, lo, hi)
	case 8:
		c.spmm8Range(x, y, lo, hi)
	default:
		c.spmmRange(k, x, y, lo, hi)
	}
}

// spmm4Range is the 4-wide SpMM kernel: four independent accumulators
// per row, one contiguous 4-block gather from X per stored entry.
//
//amg:hotpath
func (c csrOf) spmm4Range(x, y []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3 float64
		for p := rp[i]; p < rp[i+1]; p++ {
			v := c.val[p]
			xb := x[int(c.col[p])*4:]
			xb = xb[:4]
			s0 += v * xb[0]
			s1 += v * xb[1]
			s2 += v * xb[2]
			s3 += v * xb[3]
		}
		yb := y[i*4:]
		yb = yb[:4]
		yb[0], yb[1], yb[2], yb[3] = s0, s1, s2, s3
	}
}

// spmm8Range is the 8-wide SpMM kernel.
//
//amg:hotpath
func (c csrOf) spmm8Range(x, y []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for p := rp[i]; p < rp[i+1]; p++ {
			v := c.val[p]
			xb := x[int(c.col[p])*8:]
			xb = xb[:8]
			s0 += v * xb[0]
			s1 += v * xb[1]
			s2 += v * xb[2]
			s3 += v * xb[3]
			s4 += v * xb[4]
			s5 += v * xb[5]
			s6 += v * xb[6]
			s7 += v * xb[7]
		}
		yb := y[i*8:]
		yb = yb[:8]
		yb[0], yb[1], yb[2], yb[3] = s0, s1, s2, s3
		yb[4], yb[5], yb[6], yb[7] = s4, s5, s6, s7
	}
}

// spmmRange is the generic-width SpMM kernel; it accumulates directly
// into Y's row block (owned by this row), so no scratch is needed.
//
//amg:hotpath
func (c csrOf) spmmRange(k int, x, y []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		yb := y[i*k : i*k+k]
		for j := range yb {
			yb[j] = 0
		}
		for p := rp[i]; p < rp[i+1]; p++ {
			v := c.val[p]
			xb := x[int(c.col[p])*k : int(c.col[p])*k+k]
			for j, xv := range xb {
				yb[j] += v * xv
			}
		}
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
