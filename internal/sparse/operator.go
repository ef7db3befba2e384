package sparse

import (
	"fmt"
	"math"

	"mis2go/internal/par"
)

// Operator is the format-independent view of a sparse operator: the
// kernels the solver stack (Krylov iterations, AMG V-cycles, smoother
// sweeps) needs, dispatched over the storage format. Both *Matrix (CSR)
// and *SELL implement it.
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
	// DiagonalInto fills d with the diagonal entries (zero where absent).
	DiagonalInto(rt *par.Runtime, d []float64)
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
func (a *Matrix) SpMV(rt *par.Runtime, x, y []float64) { a.csr().SpMV(rt, x, y) }

// SpMVResidual computes r = b - A*x in one traversal of A. r must not
// alias x.
func (a *Matrix) SpMVResidual(rt *par.Runtime, b, x, r []float64) { a.csr().SpMVResidual(rt, b, x, r) }

// SpMVAdd computes y += A*x in one traversal of A. y must not alias x.
func (a *Matrix) SpMVAdd(rt *par.Runtime, x, y []float64) { a.csr().SpMVAdd(rt, x, y) }

// DiagonalInto fills d with the diagonal entries of A (zero where
// absent) in parallel over rows.
func (a *Matrix) DiagonalInto(rt *par.Runtime, d []float64) { a.csr().DiagonalInto(rt, d) }

// JacobiSweep computes dst[i] = src[i] + omega*dinv[i]*(b[i] - (A src)[i])
// in one traversal of A — the fused damped-Jacobi sweep of the AMG
// V-cycle. src and dst must not alias.
func (a *Matrix) JacobiSweep(rt *par.Runtime, b, dinv []float64, omega float64, src, dst []float64) {
	a.csr().JacobiSweep(rt, b, dinv, omega, src, dst)
}

// Format selects the storage layout of an Operator.
type Format int

const (
	// FormatAuto picks per matrix: SELL-C-sigma when the row-length
	// distribution is regular enough for the chunked kernels to win (see
	// ChooseFormat), CSR otherwise.
	FormatAuto Format = iota
	// FormatCSR always uses the CSR matrix itself.
	FormatCSR
	// FormatSELL always converts to SELL-C-sigma.
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

// sellMinRows is the smallest matrix FormatAuto converts: below it the
// whole operator fits in cache and the per-chunk bookkeeping outweighs
// the streaming win (coarse AMG levels stay CSR).
const sellMinRows = 2048

// ChooseFormat applies the FormatAuto heuristic to a's sparsity pattern:
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

// NewOperator returns a's kernels in the requested format. sigma is the
// SELL sort scope (0 selects the default; ignored for CSR). A malformed
// sigma (see CheckSigma) is an error under every format — FormatAuto
// must not silently turn a configuration typo into a CSR fallback.
// FormatAuto applies ChooseFormat; a SELL conversion that fails for
// capacity reasons (an operator too large for the 32-bit entry
// schedule) falls back to CSR under FormatAuto and is an error under
// FormatSELL.
func NewOperator(a *Matrix, format Format, sigma int) (Operator, error) {
	if err := CheckSigma(sigma); err != nil {
		return nil, err
	}
	switch format {
	case FormatCSR:
	case FormatSELL:
		s, err := NewSELL(a, sigma)
		if err != nil {
			return nil, err
		}
		return s, nil
	case FormatAuto:
		if ChooseFormat(a) == FormatSELL {
			if s, err := NewSELL(a, sigma); err == nil {
				return s, nil
			}
		}
	default:
		return nil, fmt.Errorf("sparse: unknown operator format %d", int(format))
	}
	return a, nil
}

// Precision names an operator's value-storage width; float64 is the
// only one.
type Precision int

// PrecisionF64 stores operator values as float64.
const PrecisionF64 Precision = 0

// NewOperatorPrec is NewOperator with a precision argument that must be
// PrecisionF64. It remains only because cmd/amgbench, which changes only
// together with the benchmark, compiles against it; delete it with the
// next benchmark change.
func NewOperatorPrec(a *Matrix, format Format, sigma int, prec Precision) (Operator, error) {
	if prec != PrecisionF64 {
		return nil, fmt.Errorf("sparse: unknown precision %d (only f64 operators exist)", int(prec))
	}
	return NewOperator(a, format, sigma)
}
