// Hot-path micro-benchmarks tracked in the BENCH_*.json perf trajectory:
// iteration-heavy kernels (repeated SpGEMM/RAP, CG solves, V-cycle and
// Gauss-Seidel applications, repeated MIS-2) whose per-call scheduling and
// allocation cost the persistent worker pool and scratch arenas remove.
// Run via `make bench`, which writes BENCH_PR<N>.json.
package mis2go

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/gs"
	"mis2go/internal/krylov"
	"mis2go/internal/mis"
	"mis2go/internal/par"
	"mis2go/internal/serve"
	"mis2go/internal/sparse"
)

// BenchmarkRepeatedMultiply measures back-to-back SpGEMMs with the same
// operands as a cold build forms them: plan, NewMatrix and Replay in
// every iteration.
func BenchmarkRepeatedMultiply(b *testing.B) {
	g := gen.Laplace3D(20, 20, 20)
	a := gen.Laplacian(g, 0.1)
	agg := coarsen.MIS2Aggregation(g, coarsen.Options{})
	p := coarsen.Prolongator(agg)
	rt := par.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := sparse.PlanMultiply(rt, a, p)
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.Replay(rt, a, p, pl.NewMatrix()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepeatedRAP measures the Galerkin triple product repeated with
// the same operands as a cold build forms it: PlanRAP, NewMatrix and
// Replay (two chained SpGEMMs) in every iteration.
func BenchmarkRepeatedRAP(b *testing.B) {
	g := gen.Laplace3D(20, 20, 20)
	a := gen.Laplacian(g, 0.1)
	agg := coarsen.MIS2Aggregation(g, coarsen.Options{})
	p := coarsen.Prolongator(agg)
	r := p.Transpose()
	rt := par.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := sparse.PlanRAP(rt, r, a, p)
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.Replay(rt, r, a, p, pl.NewMatrix()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCGJacobi measures repeated Jacobi-preconditioned CG solves of
// the same system, the repeated-solve pattern Workspace reuse targets.
func BenchmarkCGJacobi(b *testing.B) {
	g := gen.Laplace3D(24, 24, 24)
	a := gen.Laplacian(g, 1e-4)
	n := a.Rows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}
	m, err := krylov.Jacobi(a)
	if err != nil {
		b.Fatal(err)
	}
	rt := par.New(0)
	x := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := krylov.CGCtx(nil, rt, a, rhs, x, krylov.Options{Tol: 1e-8, MaxIter: 400, M: m}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCGJacobiWorkspace is BenchmarkCGJacobi through a reused
// SolverWorkspace: the zero-allocation repeated-solve path.
func BenchmarkCGJacobiWorkspace(b *testing.B) {
	g := gen.Laplace3D(24, 24, 24)
	a := gen.Laplacian(g, 1e-4)
	n := a.Rows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}
	m, err := krylov.Jacobi(a)
	if err != nil {
		b.Fatal(err)
	}
	rt := par.New(0)
	x := make([]float64, n)
	ws := krylov.NewWorkspace(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := krylov.CGCtx(nil, rt, a, rhs, x, krylov.Options{Tol: 1e-8, MaxIter: 400, M: m, Work: ws}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpMVHot measures the bare SpMV kernel on a mesh matrix.
func BenchmarkSpMVHot(b *testing.B) {
	g := gen.Laplace3D(40, 40, 40)
	a := gen.Laplacian(g, 0.1)
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	rt := par.New(0)
	b.SetBytes(int64(12 * a.NNZ()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SpMV(rt, x, y)
	}
}

// BenchmarkSpMVSELL measures the SELL-C-sigma SpMV on the same matrix as
// BenchmarkSpMVHot (which stays on CSR): the column-compressed chunk
// kernel with 8 independent accumulators against the row-major CSR
// traversal. The ratio is recorded in BENCH_PR4.json as SELL_vs_CSR.
func BenchmarkSpMVSELL(b *testing.B) {
	g := gen.Laplace3D(40, 40, 40)
	a := gen.Laplacian(g, 0.1)
	s, err := sparse.NewSELL(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	rt := par.New(0)
	b.SetBytes(int64(12 * a.NNZ()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMV(rt, x, y)
	}
}

// BenchmarkSpMM8 measures the batched multi-RHS product with 8
// right-hand sides in the interleaved layout: one traversal of A serves
// all 8 columns. Compare against BenchmarkSpMV8Separate (the same work
// as 8 independent SpMV calls, re-reading A each time); the ratio is
// recorded in BENCH_PR2.json as SpMM8_vs_8xSpMV.
func BenchmarkSpMM8(b *testing.B) {
	g := gen.Laplace3D(40, 40, 40)
	a := gen.Laplacian(g, 0.1)
	const k = 8
	x := make([]float64, a.Cols*k)
	y := make([]float64, a.Rows*k)
	for i := range x {
		x[i] = float64(i % 7)
	}
	rt := par.New(0)
	b.SetBytes(int64(12 * a.NNZ() * k))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SpMM(rt, k, x, y)
	}
}

// BenchmarkSpMV8Separate is the unbatched baseline for BenchmarkSpMM8:
// 8 separate SpMV calls over contiguous single-RHS vectors.
func BenchmarkSpMV8Separate(b *testing.B) {
	g := gen.Laplace3D(40, 40, 40)
	a := gen.Laplacian(g, 0.1)
	const k = 8
	xs := make([][]float64, k)
	ys := make([][]float64, k)
	for j := 0; j < k; j++ {
		xs[j] = make([]float64, a.Cols)
		ys[j] = make([]float64, a.Rows)
		for i := range xs[j] {
			xs[j][i] = float64((i*k + j) % 7)
		}
	}
	rt := par.New(0)
	b.SetBytes(int64(12 * a.NNZ() * k))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < k; j++ {
			a.SpMV(rt, xs[j], ys[j])
		}
	}
}

// BenchmarkCGBatch8Jacobi measures a batched 8-RHS Jacobi-preconditioned
// CG solve through a reused workspace — the multi-RHS analogue of
// BenchmarkCGJacobiWorkspace, sharing one SpMM traversal per iteration
// across all columns.
func BenchmarkCGBatch8Jacobi(b *testing.B) {
	g := gen.Laplace3D(24, 24, 24)
	a := gen.Laplacian(g, 1e-4)
	n := a.Rows
	const k = 8
	rhs := make([]float64, n*k)
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}
	m, err := krylov.Jacobi(a)
	if err != nil {
		b.Fatal(err)
	}
	rt := par.New(0)
	x := make([]float64, n*k)
	ws := krylov.NewWorkspace(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := krylov.CGBatchCtx(nil, rt, a, rhs, x, k, krylov.Options{Tol: 1e-8, MaxIter: 400, M: m, Work: ws}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCGBatchAMG measures AMG-preconditioned batch CG on the 40^3
// Dirichlet Laplacian through a reused workspace, the way amgserve
// solves: the hierarchy has no batch kernel, so every live column is
// de-interleaved through its own V-cycle. k=1 is also every CGCtx
// solve (amgsolve, the facade's SolveCG); k=4 is one coalesced 4-RHS
// request, comparable against four k=1 solves.
func BenchmarkCGBatchAMG(b *testing.B) {
	a := gen.DirichletLaplacian(gen.Laplace3D(40, 40, 40), 6.5)
	n := a.Rows
	h, err := amg.Build(a, amg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rt := par.New(0)
	ws := krylov.NewWorkspace(n)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rhs := make([]float64, n*k)
			for i := range rhs {
				rhs[i] = float64(i%13) - 6
			}
			x := make([]float64, n*k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(x)
				if _, err := krylov.CGBatchCtx(nil, rt, h.FineOperator(), rhs, x, k, krylov.Options{Tol: 1e-8, MaxIter: 400, M: h, Work: ws}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAMGBuild measures one full AMG setup — graph extraction,
// MIS-2 aggregation, SpGEMM pattern discovery, and all numeric work.
// Compare against BenchmarkAMGRefresh (the values-only re-setup on the
// same pattern); the ratio is recorded in BENCH_PR3.json as
// Resetup_vs_FullSetup.
func BenchmarkAMGBuild(b *testing.B) {
	g := gen.Laplace3D(24, 24, 24)
	a := gen.Laplacian(g, 1e-4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAMG(a, AMGOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMGRefresh measures the same-pattern numeric re-setup
// (Hierarchy.Refresh): cached plans replayed, level matrices and the
// coarse factorization refilled in place.
func BenchmarkAMGRefresh(b *testing.B) {
	g := gen.Laplace3D(24, 24, 24)
	a := gen.Laplacian(g, 1e-4)
	h, err := NewAMG(a, AMGOptions{})
	if err != nil {
		b.Fatal(err)
	}
	a2 := a.Clone()
	for p := range a2.Val {
		a2.Val[p] *= 1.25
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Refresh(a2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVCycleApply measures one V-cycle application (the AMG
// preconditioner cost inside every CG iteration).
func BenchmarkVCycleApply(b *testing.B) {
	g := gen.Laplace3D(20, 20, 20)
	a := gen.Laplacian(g, 1e-4)
	h, err := NewAMG(a, AMGOptions{})
	if err != nil {
		b.Fatal(err)
	}
	n := a.Rows
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Precondition(r, z)
	}
}

// BenchmarkGSSweepApply measures one symmetric multicolor GS sweep.
func BenchmarkGSSweepApply(b *testing.B) {
	g := gen.Laplace3D(20, 20, 20)
	a := gen.Laplacian(g, 1e-4)
	m, err := gs.NewPoint(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := a.Rows
	rhs := make([]float64, n)
	x := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(rhs, x, 1, true)
	}
}

// BenchmarkMIS2Repeated measures back-to-back MIS-2 setups on the same
// graph (the arena reuse target for t/m and the worklists).
func BenchmarkMIS2Repeated(b *testing.B) {
	g := gen.Laplace3D(32, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis.MIS2(g, mis.Options{})
	}
}

// serveBenchRequest is one request of the serving-throughput mix.
type serveBenchRequest struct {
	a *sparse.Matrix
	b []float64
}

// serveBenchMix is the fixed request mix both serving benchmarks
// replay: two sparsity patterns x four value sets x four same-operator
// repeats, ordered so same-operator requests are adjacent (concurrent
// clients pull them into the batching window together). 32 requests.
func serveBenchMix() []serveBenchRequest {
	patterns := []*sparse.Matrix{
		gen.Laplacian(gen.Laplace3D(16, 16, 16), 0.05),
		gen.Laplacian(gen.Laplace2D(56, 56), 0.1),
	}
	var mix []serveBenchRequest
	for p, base := range patterns {
		rhs := make([]float64, base.Rows)
		for i := range rhs {
			rhs[i] = 1 + float64((i+p)%13)/13
		}
		for v := 0; v < 4; v++ {
			a := base.Clone()
			a.Scale(1 + 0.25*float64(v))
			for rep := 0; rep < 4; rep++ {
				mix = append(mix, serveBenchRequest{a: a, b: rhs})
			}
		}
	}
	return mix
}

// BenchmarkServeThroughput measures the solve service on the mixed
// new-pattern/refresh/repeat request stream, driven by 8 concurrent
// client goroutines: the fingerprint cache amortizes setup, identical
// operators are served for free, and the batching window coalesces
// same-operator solves into shared CGBatch calls. One op = the whole
// 32-request mix. Compare BenchmarkSequentialSolves (the ratio is
// Serve_vs_SequentialSolves in BENCH_PR5.json).
func BenchmarkServeThroughput(b *testing.B) {
	mix := serveBenchMix()
	s := serve.New(serve.Config{Tol: 1e-8, MaxIter: 400, BatchWindow: 500 * time.Microsecond})
	ctx := context.Background()
	const clients = 8
	// Warm the cache with one sequential pass so every measured op does
	// the same work (refreshes/reuses/coalesced solves, no cold builds):
	// the ratio against BenchmarkSequentialSolves is explicitly
	// steady-state service vs. naive per-request setup.
	for _, r := range mix {
		if _, _, err := s.Solve(ctx, r.a, r.b); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make(chan serveBenchRequest, len(mix))
		for _, r := range mix {
			work <- r
		}
		close(work)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range work {
					if _, _, err := s.Solve(ctx, r.a, r.b); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkSequentialSolves is the single-caller baseline for the same
// request mix: every request pays a full hierarchy build plus a solo
// CG solve, one after another — what each client would do without the
// service. One op = the whole 32-request mix.
func BenchmarkSequentialSolves(b *testing.B) {
	mix := serveBenchMix()
	rt := par.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range mix {
			h, err := amg.Build(r.a, amg.Options{})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, r.a.Rows)
			bb := append([]float64(nil), r.b...)
			if _, err := krylov.CGBatchCtx(nil, rt, r.a, bb, x, 1, krylov.Options{Tol: 1e-8, MaxIter: 400, M: h}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkVCycleF64Apply is one V-cycle application on a 27-point
// 88^3 grid (681k rows, 18M entries): per fine-level row the smoother
// streams 27 values and 27 column indices, and the ~280 MB hierarchy
// spills a shared L3, so this tracks the memory-bound V-cycle at a
// size the 7-point BenchmarkVCycleApply does not reach. The name is
// kept so BENCH_*.json keys still join.
func BenchmarkVCycleF64Apply(b *testing.B) {
	a := gen.Laplacian(gen.Grid3D27(88, 88, 88), 1e-4)
	h, err := NewAMG(a, AMGOptions{})
	if err != nil {
		b.Fatal(err)
	}
	n := a.Rows
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	h.Precondition(r, z) // touch every level once before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Precondition(r, z)
	}
}

// BenchmarkServePrecisionF64 serves a time-stepping stream: a 27-point
// 56^3 system stepped through 3 same-pattern value updates, each served
// once, so every request pays a numeric refresh plus an AMG-CG solve.
// One op = the whole 3-step stream. The name is kept so BENCH_*.json
// keys still join.
func BenchmarkServePrecisionF64(b *testing.B) {
	base := gen.Laplacian(gen.Grid3D27(56, 56, 56), 1e-4)
	rhs := make([]float64, base.Rows)
	for i := range rhs {
		rhs[i] = 1 + float64(i%13)/13
	}
	var mix []serveBenchRequest
	for v := 0; v < 3; v++ {
		a := base.Clone()
		a.Scale(1 + 0.25*float64(v))
		mix = append(mix, serveBenchRequest{a: a, b: rhs})
	}
	s := serve.New(serve.Config{Tol: 1e-8, MaxIter: 400, CacheCapacity: 4})
	ctx := context.Background()
	// Warm pass: the one cold hierarchy build happens here, so every
	// measured op pays the same steady-state refresh+solve work.
	for _, r := range mix {
		if _, _, err := s.Solve(ctx, r.a, r.b); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range mix {
			if _, _, err := s.Solve(ctx, r.a, r.b); err != nil {
				b.Fatal(err)
			}
		}
	}
}
