// Mixed-precision tests: float32-valued operators change only the bytes
// the kernels stream — every kernel takes float64 vectors, widens each
// stored value back to float64 before its multiply, and accumulates in
// float64 in the canonical left-to-right per-row order. These tests pin
// the three contracts that make f32 storage safe to serve: bitwise
// determinism across worker counts and formats, fail-closed refresh
// (a rejected f32 refresh leaves the previous values serving bitwise
// unchanged), and convergence quality (the f64-guarded CG pays at most
// +10% iterations for f32 operator storage).
package mis2go

import (
	"context"
	"math"
	"testing"

	"mis2go/internal/gen"
)

// TestF32SolveCGBitwiseAcrossWorkers extends the gate to a full solve:
// outer f32 operator, f32 hierarchy, bitwise-identical solutions and
// stats at 1/2/8 workers.
func TestF32SolveCGBitwiseAcrossWorkers(t *testing.T) {
	g := gen.Laplace3D(16, 16, 16)
	a := GraphLaplacian(g, 1e-4)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	var refX []uint64
	var refStats SolveStats
	for k, threads := range []int{1, 2, 8} {
		h, err := NewAMG(a, AMGOptions{Threads: threads, Precision: PrecisionF32})
		if err != nil {
			t.Fatalf("%d workers: %v", threads, err)
		}
		op, err := NewOperatorPrec(a, FormatAuto, PrecisionF32)
		if err != nil {
			t.Fatalf("%d workers: %v", threads, err)
		}
		x := make([]float64, n)
		st, err := SolveCG(op, b, x, SolveOptions{Tol: 1e-10, MaxIter: 400, M: h}, threads)
		if err != nil {
			t.Fatalf("%d workers: %v", threads, err)
		}
		bits := make([]uint64, n)
		for i, v := range x {
			bits[i] = math.Float64bits(v)
		}
		if k == 0 {
			refX, refStats = bits, st
			continue
		}
		if st.Iterations != refStats.Iterations {
			t.Fatalf("%d workers: %d iterations, want %d", threads, st.Iterations, refStats.Iterations)
		}
		if math.Float64bits(st.RelResidual) != math.Float64bits(refStats.RelResidual) {
			t.Fatalf("%d workers: relres differs bitwise", threads)
		}
		for i := range bits {
			if bits[i] != refX[i] {
				t.Fatalf("%d workers: x[%d] differs bitwise", threads, i)
			}
		}
	}
}

// TestF32ConvergenceWithinTenPercent is the convergence-quality gate:
// storing operator values in float32 under the float64-guarded CG
// recurrence may cost at most 10% extra iterations versus the all-f64
// solve of the same system, on both a structured and an irregular
// problem.
func TestF32ConvergenceWithinTenPercent(t *testing.T) {
	systems := map[string]*Matrix{
		"laplace3d": GraphLaplacian(gen.Laplace3D(24, 24, 24), 1e-4),
		"randomfem": GraphLaplacian(gen.RandomFEM(12, 12, 12, 18, 7), 1e-4),
	}
	for name, a := range systems {
		n := a.Rows
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%13) - 6
		}
		iters := func(prec OperatorPrecision) int {
			h, err := NewAMG(a, AMGOptions{Precision: prec})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, prec, err)
			}
			op, err := NewOperatorPrec(a, FormatAuto, resolveOuter(prec))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, prec, err)
			}
			x := make([]float64, n)
			st, err := SolveCG(op, b, x, SolveOptions{Tol: 1e-10, MaxIter: 600, M: h}, 0)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, prec, err)
			}
			return st.Iterations
		}
		f64 := iters(PrecisionF64)
		budget := f64 + (f64+9)/10 // ceil(1.1x)
		for _, prec := range []OperatorPrecision{PrecisionF32, PrecisionAuto} {
			if got := iters(prec); got > budget {
				t.Fatalf("%s: %v solve took %d CG iterations, f64 took %d (budget +10%% = %d)", name, prec, got, f64, budget)
			}
		}
	}
}

// resolveOuter maps the hierarchy precision policy to the outer CG
// operator's single-operator precision: the outer matvec matches the
// finest level, which stays f64 under PrecisionAuto.
func resolveOuter(prec OperatorPrecision) OperatorPrecision {
	if prec == PrecisionF32 {
		return PrecisionF32
	}
	return PrecisionF64
}

// TestF32RefreshRejectedLeavesPreviousServing pins the fail-closed
// two-zone refresh contract for f32 hierarchies: a refresh whose values
// do not fit float32 (or are not finite) is rejected by the pre-mutation
// scan, the hierarchy stays valid, and the previous operator serves
// bitwise unchanged.
func TestF32RefreshRejectedLeavesPreviousServing(t *testing.T) {
	g := gen.Laplace3D(12, 12, 12)
	a := GraphLaplacian(g, 1e-2)
	h, err := NewAMG(a, AMGOptions{Precision: PrecisionF32})
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	apply := func() []uint64 {
		z := make([]float64, n)
		h.Precondition(r, z)
		bits := make([]uint64, n)
		for i, v := range z {
			bits[i] = math.Float64bits(v)
		}
		return bits
	}
	before := apply()
	// Same pattern, one value pushed outside the float32 range: the
	// fine-level range scan must reject before any level is touched.
	for _, poison := range []float64{math.MaxFloat32 * 2, math.NaN(), math.Inf(1)} {
		bad := a.Clone()
		bad.Val[len(bad.Val)/2] = poison
		if err := h.Refresh(bad); err == nil {
			t.Fatalf("poison %g: refresh accepted values that do not fit float32", poison)
		}
		after := apply()
		for i := range after {
			if after[i] != before[i] {
				t.Fatalf("poison %g: z[%d] changed after a rejected refresh", poison, i)
			}
		}
	}
	// A valid same-pattern refresh still works after the rejections —
	// the hierarchy was never invalidated.
	a2 := a.Clone()
	for p := range a2.Val {
		a2.Val[p] *= 1.25
	}
	if err := h.Refresh(a2); err != nil {
		t.Fatalf("valid refresh after rejections: %v", err)
	}
}

// TestRefreshF32ZeroAllocs extends the numeric re-setup allocation gate
// to f32 hierarchies: FillValues on CSR32/SELL32 is a branch-free
// convert through the cached entry schedule, so a values-only Refresh
// allocates nothing in steady state at either storage format (a 12^3
// grid keeps the finest level on CSR32, a 14^3 grid puts it on SELL32).
func TestRefreshF32ZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector bypasses sync.Pool arena recycling, charging spurious allocations")
	}
	for side, format := range map[int]OperatorFormat{12: FormatCSR, 14: FormatSELL} {
		a := gen.Laplacian(gen.Laplace3D(side, side, side), 1e-2)
		h, err := NewAMG(a, AMGOptions{Threads: 1, Precision: PrecisionF32})
		if err != nil {
			t.Fatal(err)
		}
		if f := h.Levels[0].Format(); f != format {
			t.Fatalf("%d^3 finest level format %v, want %v", side, f, format)
		}
		a2 := a.Clone()
		for p := range a2.Val {
			a2.Val[p] *= 1.25
		}
		for i := 0; i < 2; i++ {
			if err := h.Refresh(a2); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := h.Refresh(a2); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v f32 Hierarchy.Refresh: %v allocs/op, want 0", format, allocs)
		}
	}
}

// TestF32RefreshMatchesFreshBuild pins refresh/build equivalence in
// f32: refreshing an f32 hierarchy onto new values yields a V-cycle
// bitwise identical to building fresh on those values.
func TestF32RefreshMatchesFreshBuild(t *testing.T) {
	g := gen.Laplace3D(14, 14, 14)
	a := GraphLaplacian(g, 1e-2)
	a2 := a.Clone()
	for p := range a2.Val {
		a2.Val[p] *= 1.5
	}
	n := a.Rows
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	for _, prec := range []OperatorPrecision{PrecisionF32, PrecisionAuto} {
		refreshed, err := NewAMG(a, AMGOptions{Precision: prec})
		if err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		if err := refreshed.Refresh(a2); err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		fresh, err := NewAMG(a2, AMGOptions{Precision: prec})
		if err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		zr := make([]float64, n)
		zf := make([]float64, n)
		refreshed.Precondition(r, zr)
		fresh.Precondition(r, zf)
		for i := range zr {
			if math.Float64bits(zr[i]) != math.Float64bits(zf[i]) {
				t.Fatalf("%v: refreshed z[%d] differs bitwise from fresh build", prec, i)
			}
		}
	}
}

// TestF32ServeRecordsPrecision pins the serving surface: a service
// configured for f32 reports the policy in per-request stats and serves
// solves bitwise identical to the sequential f32 reference.
func TestF32ServeRecordsPrecision(t *testing.T) {
	g := gen.Laplace3D(12, 12, 12)
	a := GraphLaplacian(g, 1e-2)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	svc := NewSolveService(ServeConfig{AMG: AMGOptions{Threads: 1, Precision: PrecisionF32}})
	xs, stats, err := svc.SolveBatch(context.Background(), a, [][]float64{b})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Precision != PrecisionF32 {
		t.Fatalf("served stats record precision %v, want %v", stats.Precision, PrecisionF32)
	}
	// Sequential f32 reference: same hierarchy policy, same outer
	// operator precision, same tolerance defaults (1e-8, 500), and the
	// same k=1 CGBatch recurrence the service runs.
	h, err := NewAMG(a, AMGOptions{Threads: 1, Precision: PrecisionF32})
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperatorPrec(a, FormatAuto, PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	bb := append([]float64(nil), b...)
	if _, err := SolveCGBatch(op, bb, x, 1, SolveOptions{Tol: 1e-8, MaxIter: 500, M: h}, 1); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(xs[0][i]) != math.Float64bits(x[i]) {
			t.Fatalf("served f32 solution x[%d] differs bitwise from the sequential reference", i)
		}
	}
	// The zero-value policy stays f64 and is reported as such.
	svc64 := NewSolveService(ServeConfig{AMG: AMGOptions{Threads: 1}})
	if _, st, err := svc64.SolveBatch(context.Background(), a, [][]float64{b}); err != nil {
		t.Fatal(err)
	} else if st.Precision != PrecisionF64 {
		t.Fatalf("default service records precision %v, want %v", st.Precision, PrecisionF64)
	}
}
