package sparse

import (
	"fmt"
	"math"
)

// Precision selects the value-storage width of an Operator. Only the
// stored matrix values change width: every kernel takes float64 vectors
// and accumulates each row's terms in float64, in the same canonical
// left-to-right order as the f64 operators, so a given precision is
// bitwise deterministic across formats and worker counts. See DESIGN.md
// ("Mixed precision").
type Precision int

const (
	// PrecisionF64 stores operator values as float64 — the default and
	// the reference arithmetic.
	PrecisionF64 Precision = iota
	// PrecisionF32 stores operator values as float32, halving the bytes
	// streamed per stored value; products still accumulate in float64.
	PrecisionF32
	// PrecisionAuto is the hierarchy policy "f32 on all levels below the
	// finest": the fine operator (and the outer Krylov matvec) keeps the
	// full-precision values, coarser levels store f32. Callers that build
	// a single operator must resolve Auto to a concrete precision first.
	PrecisionAuto
)

// String implements fmt.Stringer for diagnostics and CLI flags.
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	case PrecisionAuto:
		return "auto"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision converts a CLI-style name to a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	case "auto":
		return PrecisionAuto, nil
	}
	return PrecisionF64, fmt.Errorf("sparse: unknown precision %q (want f64, f32, or auto)", s)
}

// ValueFiller is the refresh surface shared by the value-caching
// operator variants (*SELL, *CSR32, *SELL32): replace the stored values
// from a same-pattern CSR matrix without reallocating. FillValues
// mutates the operator and must be serialized against every reader;
// pattern identity is the caller's contract (the AMG hierarchy
// fingerprints it).
type ValueFiller interface {
	FillValues(a *Matrix) error
}

// CheckF32Range reports the first value of vals that cannot be stored as
// a float32 — non-finite, or magnitude above math.MaxFloat32 (which
// would silently convert to ±Inf). Subnormal and rounded-to-zero
// magnitudes are representable and pass. The f32 constructors and
// FillValues run this scan before mutating anything, so a rejected
// refresh leaves the previous values serving (the hierarchy's two-zone
// refresh contract).
func CheckF32Range(vals []float64) error {
	for p, v := range vals {
		if v != v || v > math.MaxFloat32 || v < -math.MaxFloat32 {
			return fmt.Errorf("sparse: value %g at entry %d is outside the float32 range", v, p)
		}
	}
	return nil
}

// NewOperatorPrec returns a's kernels in the requested format and value
// precision: the same construction as NewOperator, with values stored as
// float64 (PrecisionF64: *Matrix or *SELL) or float32 (PrecisionF32:
// *CSR32 or *SELL32). PrecisionAuto is a per-level hierarchy policy, not
// a single-operator precision, and is rejected here — the caller
// resolves it per level before constructing.
func NewOperatorPrec(a *Matrix, format Format, sigma int, prec Precision) (Operator, error) {
	switch prec {
	case PrecisionF64:
		return newOperator[float64](a, format, sigma)
	case PrecisionF32:
		return newOperator[float32](a, format, sigma)
	case PrecisionAuto:
		return nil, fmt.Errorf("sparse: PrecisionAuto must be resolved to f64 or f32 per level before constructing an operator")
	}
	return nil, fmt.Errorf("sparse: unknown precision %d", int(prec))
}

// OperatorPrecision reports the value-storage precision of an operator
// built by NewOperator/NewOperatorPrec.
func OperatorPrecision(op Operator) Precision {
	switch op.(type) {
	case *CSR32, *SELL32:
		return PrecisionF32
	}
	return PrecisionF64
}
