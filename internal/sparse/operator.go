package sparse

import (
	"fmt"
	"math"

	"mis2go/internal/par"
)

// Operator is the format-independent view of a sparse operator: the
// product kernels the solver stack (Krylov iterations, AMG V-cycles,
// smoother sweeps) needs, dispatched over the storage format. Both
// *Matrix (CSR) and *SELL implement it. Setup-side reads such as the
// diagonal stay on the CSR *Matrix.
//
// Every implementation accumulates each output row's terms in the same
// canonical order — strict left-to-right over the row's stored entries
// with a single accumulator — so switching the format of an operator
// never changes any result by even one ULP, for any worker count. See
// DESIGN.md ("Operator formats").
type Operator interface {
	// Dims returns the operator shape (rows, cols).
	Dims() (rows, cols int)
	// NNZ returns the number of stored entries.
	NNZ() int
	// SpMV computes y = A*x.
	SpMV(rt *par.Runtime, x, y []float64)
	// SpMVResidual computes r = b - A*x in one traversal.
	SpMVResidual(rt *par.Runtime, b, x, r []float64)
	// SpMVAdd computes y += A*x in one traversal.
	SpMVAdd(rt *par.Runtime, x, y []float64)
	// JacobiSweep performs one damped-Jacobi sweep fused into the matrix
	// traversal: dst[i] = src[i] + omega*dinv[i]*(b[i] - (A src)[i]).
	// src and dst must not alias.
	JacobiSweep(rt *par.Runtime, b, dinv []float64, omega float64, src, dst []float64)
}

// csr returns the CSR kernel view of a's fields (shared, not copied):
// every *Matrix kernel forwards to the one CSR kernel body in csr.go.
func (a *Matrix) csr() csrOf {
	return csrOf{rows: a.Rows, cols: a.Cols, rowPtr: a.RowPtr, col: a.Col, val: a.Val}
}

// Dims returns the matrix shape, implementing Operator.
func (a *Matrix) Dims() (rows, cols int) { return a.Rows, a.Cols }

// SpMV computes y = A*x in parallel over rows.
func (a *Matrix) SpMV(rt *par.Runtime, x, y []float64) {
	a.csr().product(rt, epSet, nil, nil, 0, x, y)
}

// SpMVResidual computes r = b - A*x in one traversal of A, fusing the
// elementwise subtraction into the product pass (the V-cycle's residual
// step without a second full-vector sweep). r must not alias x.
func (a *Matrix) SpMVResidual(rt *par.Runtime, b, x, r []float64) {
	a.csr().product(rt, epResidual, b, nil, 0, x, r)
}

// SpMVAdd computes y += A*x in one traversal of A, fusing the correction
// add into the product pass (the V-cycle's prolongate-and-correct step
// without a scratch vector or second sweep). y must not alias x.
func (a *Matrix) SpMVAdd(rt *par.Runtime, x, y []float64) {
	a.csr().product(rt, epAdd, nil, nil, 0, x, y)
}

// DiagonalInto fills d with the diagonal entries of A (zero where
// absent) in parallel over rows.
func (a *Matrix) DiagonalInto(rt *par.Runtime, d []float64) { a.csr().DiagonalInto(rt, d) }

// JacobiSweep computes dst[i] = src[i] + omega*dinv[i]*(b[i] - (A src)[i])
// in one traversal of A — the fused damped-Jacobi sweep of the AMG
// V-cycle. src and dst must not alias (the sweep needs the full old
// iterate; the V-cycle ping-pongs two buffers).
func (a *Matrix) JacobiSweep(rt *par.Runtime, b, dinv []float64, omega float64, src, dst []float64) {
	a.csr().product(rt, epJacobi, b, dinv, omega, src, dst)
}

// Format names the storage layout of an Operator: what ChooseFormat
// picks and amg.Level.Format reports.
type Format int

const (
	// FormatAuto is not a layout: it survives only as the format
	// argument NewOperatorPrec accepts.
	FormatAuto Format = iota
	// FormatCSR is the CSR matrix itself.
	FormatCSR
	// FormatSELL is a SELL-C-sigma conversion.
	FormatSELL
)

// String implements fmt.Stringer for diagnostics (amgsolve's formats: line).
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatCSR:
		return "csr"
	case FormatSELL:
		return "sell"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// sellMinRows is the smallest matrix NewOperator converts: below it the
// whole operator fits in cache and the per-chunk bookkeeping outweighs
// the streaming win (coarse AMG levels stay CSR).
const sellMinRows = 2048

// ChooseFormat is NewOperator's format policy, a function of a's sparsity pattern:
// SELL when the matrix is large enough and the row lengths are regular —
// relative standard deviation of the row lengths at most 1/2, so chunks
// are near-uniform and the column-compressed kernel runs its full-width
// fast path almost everywhere (fine mesh/Laplacian levels) — and CSR for
// small or irregular matrices (coarse Galerkin levels, skewed meshes),
// where sorting rows by length would scatter the gathers from x for
// little padding benefit. Pattern-only: values never affect the choice.
func ChooseFormat(a *Matrix) Format {
	if a.Rows < sellMinRows || len(a.Col) == 0 {
		return FormatCSR
	}
	mean := float64(len(a.Col)) / float64(a.Rows)
	if mean == 0 {
		return FormatCSR
	}
	varsum := 0.0
	for i := 0; i < a.Rows; i++ {
		d := float64(a.RowPtr[i+1]-a.RowPtr[i]) - mean
		varsum += d * d
	}
	relstd := 0.0
	if varsum > 0 {
		relstd = math.Sqrt(varsum/float64(a.Rows)) / mean
	}
	if relstd <= 0.5 {
		return FormatSELL
	}
	return FormatCSR
}

// NewOperator returns a's kernels in the format ChooseFormat picks: a
// SELL-C-sigma conversion or a itself. A SELL conversion that fails for
// capacity reasons (an operator too large for the 32-bit chunk offsets)
// falls back to CSR; the formats are bit-identical, so the choice only
// changes speed. It converts on the default runtime; NewOperatorWith
// takes one.
func NewOperator(a *Matrix) Operator { return NewOperatorWith(par.Default(), a) }

// NewOperatorWith is NewOperator with an explicit runtime for the SELL
// conversion. The operator is the same at any worker count.
func NewOperatorWith(rt *par.Runtime, a *Matrix) Operator {
	if ChooseFormat(a) == FormatSELL {
		if s, err := newSELL(rt, a, sellSigma); err == nil {
			return s
		}
	}
	return a
}

// Precision names an operator's value-storage width; float64 is the
// only one.
type Precision int

// PrecisionF64 stores operator values as float64.
const PrecisionF64 Precision = 0

// NewOperatorPrec is NewOperator behind the argument list of the removed
// format, sort-scope and precision options; it accepts only
// (FormatAuto, 0, PrecisionF64). It remains only because cmd/amgbench,
// which changes only together with the benchmark, compiles against it;
// delete it with the next benchmark change.
func NewOperatorPrec(a *Matrix, format Format, sigma int, prec Precision) (Operator, error) {
	if format != FormatAuto || sigma != 0 || prec != PrecisionF64 {
		return nil, fmt.Errorf("sparse: operator options (%v, sigma %d, precision %d): only (auto, 0, f64) exists", format, sigma, int(prec))
	}
	return NewOperator(a), nil
}
