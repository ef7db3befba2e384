// Determinism tests: every algorithm must produce byte-identical results
// for any worker count. The persistent worker pool claims blocks with an
// atomic counter (work stealing), so these tests pin the contract that
// the schedule never leaks into results — the blocking is a fixed
// function of (n, workers), blocks write disjoint ranges, and all
// floating-point reductions run in a scheduling-independent order.
// Run with -race to also exercise the pool's synchronization.
package mis2go

import (
	"math"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/par"
)

var detWorkerCounts = []int{1, 2, 8}

func detGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"laplace3d": gen.Laplace3D(24, 24, 24),
		"randomfem": gen.RandomFEM(12, 12, 12, 18, 7),
	}
}

func TestMIS2DeterministicAcrossWorkers(t *testing.T) {
	for name, g := range detGraphs() {
		var ref MISResult
		for k, threads := range detWorkerCounts {
			res := MIS2(g, MISOptions{Threads: threads})
			if k == 0 {
				ref = res
				if err := VerifyMIS2(g, res.InSet); err != nil {
					t.Fatalf("%s: invalid MIS-2: %v", name, err)
				}
				continue
			}
			if res.Iterations != ref.Iterations {
				t.Fatalf("%s: %d workers: %d iterations, want %d", name, threads, res.Iterations, ref.Iterations)
			}
			if len(res.InSet) != len(ref.InSet) {
				t.Fatalf("%s: %d workers: |InSet|=%d, want %d", name, threads, len(res.InSet), len(ref.InSet))
			}
			for i := range res.InSet {
				if res.InSet[i] != ref.InSet[i] {
					t.Fatalf("%s: %d workers: InSet[%d]=%d, want %d", name, threads, i, res.InSet[i], ref.InSet[i])
				}
			}
		}
	}
}

func TestAggregateDeterministicAcrossWorkers(t *testing.T) {
	for name, g := range detGraphs() {
		var ref Aggregation
		for k, threads := range detWorkerCounts {
			agg := Aggregate(g, threads)
			if k == 0 {
				ref = agg
				continue
			}
			if agg.NumAggregates != ref.NumAggregates {
				t.Fatalf("%s: %d workers: %d aggregates, want %d", name, threads, agg.NumAggregates, ref.NumAggregates)
			}
			for v := range agg.Labels {
				if agg.Labels[v] != ref.Labels[v] {
					t.Fatalf("%s: %d workers: label[%d]=%d, want %d", name, threads, v, agg.Labels[v], ref.Labels[v])
				}
			}
		}
	}
}

// TestVCycleDeterministicAcrossWorkers pins the fused V-cycle paths
// (fused residual+restriction, fused prolongation+correction, fused
// ping-pong Jacobi): one preconditioner application must be bitwise
// identical for every worker count.
func TestVCycleDeterministicAcrossWorkers(t *testing.T) {
	g := gen.Laplace3D(20, 20, 20)
	a := GraphLaplacian(g, 1e-4)
	n := a.Rows
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	var ref []uint64
	for idx, threads := range detWorkerCounts {
		h, err := NewAMG(a, AMGOptions{Threads: threads})
		if err != nil {
			t.Fatalf("%d workers: %v", threads, err)
		}
		z := make([]float64, n)
		h.Precondition(r, z)
		bits := make([]uint64, n)
		for i, v := range z {
			bits[i] = math.Float64bits(v)
		}
		if idx == 0 {
			ref = bits
			continue
		}
		for i := range bits {
			if bits[i] != ref[i] {
				t.Fatalf("%d workers: z[%d] differs bitwise", threads, i)
			}
		}
	}
}

// TestRCMSELLSolveBitwiseMatchesCSR pins the reordered path: the system
// (16^3 = 4096 regular rows, so the finest level runs on SELL) is
// RCM-permuted, solved by AMG-CG through the hierarchy's SELL
// FineOperator, and the solution inverse-permuted back; the result must
// be bitwise identical (0 ULP) to the sequential solve of the same
// reordered system with the CSR matrix as outer operator, inverse-
// permuted the same way, at every worker count — the permutation is
// pure data movement and the formats are bit-compatible, so nothing may
// drift.
func TestRCMSELLSolveBitwiseMatchesCSR(t *testing.T) {
	g := gen.Laplace3D(16, 16, 16)
	a0 := GraphLaplacian(g, 1e-4)
	perm := RCMOrder(a0)
	a, err := PermuteMatrix(a0, perm)
	if err != nil {
		t.Fatal(err)
	}
	if Bandwidth(a) > Bandwidth(a0) {
		t.Fatalf("RCM increased bandwidth: %d -> %d", Bandwidth(a0), Bandwidth(a))
	}
	n := a.Rows
	b0 := make([]float64, n)
	for i := range b0 {
		b0[i] = float64(i%13) - 6
	}
	b := make([]float64, n)
	if err := PermuteVector(b, b0, perm); err != nil {
		t.Fatal(err)
	}

	solve := func(csrOuter bool, threads int) []uint64 {
		h, err := NewAMG(a, AMGOptions{Threads: threads})
		if err != nil {
			t.Fatalf("%d workers: %v", threads, err)
		}
		if f := h.Levels[0].Format(); f != FormatSELL {
			t.Fatalf("%d workers: finest level format %v, want SELL", threads, f)
		}
		var op Operator = h.FineOperator()
		if csrOuter {
			op = a
		}
		x := make([]float64, n)
		if _, err := SolveCG(op, b, x, SolveOptions{Tol: 1e-10, MaxIter: 400, M: h}, threads); err != nil {
			t.Fatalf("%d workers: %v", threads, err)
		}
		// Inverse-permute the solution back to the original numbering.
		back := make([]float64, n)
		if err := InversePermuteVector(back, x, perm); err != nil {
			t.Fatalf("%d workers: %v", threads, err)
		}
		bits := make([]uint64, n)
		for i, v := range back {
			bits[i] = math.Float64bits(v)
		}
		return bits
	}
	ref := solve(true, 1)
	for _, threads := range detWorkerCounts {
		bits := solve(false, threads)
		for i := range bits {
			if bits[i] != ref[i] {
				t.Fatalf("SELL outer operator, %d workers: x[%d] differs bitwise from the CSR reference after inverse permutation", threads, i)
			}
		}
	}
	// Sanity: the inverse-permuted solution solves the original system.
	x := make([]float64, n)
	for i, bv := range ref {
		x[i] = math.Float64frombits(bv)
	}
	res := make([]float64, n)
	a0.SpMVResidual(par.New(1), b0, x, res)
	rr, bb := 0.0, 0.0
	for i := range res {
		rr += res[i] * res[i]
		bb += b0[i] * b0[i]
	}
	if math.Sqrt(rr/bb) > 1e-9 {
		t.Fatalf("inverse-permuted solution does not solve the original system: relres %g", math.Sqrt(rr/bb))
	}
}

func TestSolveCGDeterministicAcrossWorkers(t *testing.T) {
	g := gen.Laplace3D(24, 24, 24)
	a := GraphLaplacian(g, 1e-4)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	m, err := JacobiPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	var refX []uint64
	var refStats SolveStats
	for k, threads := range detWorkerCounts {
		x := make([]float64, n)
		st, err := SolveCG(a, b, x, SolveOptions{Tol: 1e-10, MaxIter: 600, M: m}, threads)
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
			t.Fatalf("%d workers: relres %g, want %g (bitwise)", threads, st.RelResidual, refStats.RelResidual)
		}
		for i := range bits {
			if bits[i] != refX[i] {
				t.Fatalf("%d workers: x[%d] differs bitwise: %x vs %x", threads, i, bits[i], refX[i])
			}
		}
	}
}
