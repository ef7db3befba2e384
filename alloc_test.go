// Allocation-regression tests: the hot paths must perform zero heap
// allocations after setup. Each test measures with testing.AllocsPerRun
// at one worker, where every kernel takes its closure-free serial fast
// path and scratch comes from workspaces, preallocated level vectors, or
// the arena. A regression here means a hot loop started allocating —
// exactly the per-call cost the persistent pool and arenas exist to
// remove.
package mis2go

import (
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/gs"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

func TestSpMVZeroAllocs(t *testing.T) {
	g := gen.Laplace3D(16, 16, 16)
	a := gen.Laplacian(g, 0.1)
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	rt := par.New(1)
	allocs := testing.AllocsPerRun(20, func() {
		a.SpMV(rt, x, y)
	})
	if allocs != 0 {
		t.Fatalf("SpMV: %v allocs/op, want 0", allocs)
	}
}

func TestCGWorkspaceZeroAllocs(t *testing.T) {
	g := gen.Laplace3D(12, 12, 12)
	a := gen.Laplacian(g, 1e-2)
	n := a.Rows
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	m, err := krylov.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	rt := par.New(1)
	ws := krylov.NewWorkspace(n)
	// Warm-up solve (also verifies convergence so the error path with
	// its fmt.Errorf allocation is never taken during measurement).
	if _, err := krylov.CGCtx(nil, rt, a, b, x, krylov.Options{Tol: 1e-8, MaxIter: 500, M: m, Work: ws}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i := range x {
			x[i] = 0
		}
		if _, err := krylov.CGCtx(nil, rt, a, b, x, krylov.Options{Tol: 1e-8, MaxIter: 500, M: m, Work: ws}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("CG solve with workspace: %v allocs/op, want 0", allocs)
	}
}

func TestFacadeSolveCGWithZeroAllocs(t *testing.T) {
	g := gen.Laplace3D(12, 12, 12)
	a := gen.Laplacian(g, 1e-2)
	n := a.Rows
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	m, err := JacobiPreconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewSolverWorkspace(n)
	if _, err := SolveCG(a, b, x, SolveOptions{Tol: 1e-8, MaxIter: 500, M: m, Work: ws}, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i := range x {
			x[i] = 0
		}
		if _, err := SolveCG(a, b, x, SolveOptions{Tol: 1e-8, MaxIter: 500, M: m, Work: ws}, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("facade SolveCG with a workspace: %v allocs/op, want 0", allocs)
	}
}

func TestVCycleZeroAllocs(t *testing.T) {
	g := gen.Laplace3D(12, 12, 12)
	a := gen.Laplacian(g, 1e-2)
	h, err := NewAMG(a, AMGOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	allocs := testing.AllocsPerRun(10, func() {
		h.Precondition(r, z)
	})
	if allocs != 0 {
		t.Fatalf("V-cycle apply: %v allocs/op, want 0", allocs)
	}
}

// TestVCycleSELLZeroAllocs extends the V-cycle gate to the SELL path:
// a 14^3 grid is large and regular enough that the finest level runs
// on SELL-C-sigma, and the apply still performs zero steady-state heap
// allocations.
func TestVCycleSELLZeroAllocs(t *testing.T) {
	g := gen.Laplace3D(14, 14, 14)
	a := gen.Laplacian(g, 1e-2)
	h, err := NewAMG(a, AMGOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f := h.Levels[0].Format(); f != FormatSELL {
		t.Fatalf("finest level format %v, want SELL", f)
	}
	n := a.Rows
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	allocs := testing.AllocsPerRun(10, func() {
		h.Precondition(r, z)
	})
	if allocs != 0 {
		t.Fatalf("SELL V-cycle apply: %v allocs/op, want 0", allocs)
	}
}

// TestSELLSmootherSweepZeroAllocs gates the SELL smoother kernels
// directly: the fused Jacobi sweep and the SpMV the outer Krylov
// iteration multiplies by allocate nothing in steady state.
func TestSELLSmootherSweepZeroAllocs(t *testing.T) {
	g := gen.Laplace3D(12, 12, 12)
	a := gen.Laplacian(g, 1e-2)
	op, err := sparse.NewSELL(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	b := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	dinv := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
		x[i] = float64(i%7) - 3
		dinv[i] = 0.25
	}
	rt := par.New(1)
	allocs := testing.AllocsPerRun(10, func() {
		op.JacobiSweep(rt, b, dinv, 2.0/3.0, x, y)
		op.SpMV(rt, y, x)
	})
	if allocs != 0 {
		t.Fatalf("SELL smoother sweep: %v allocs/op, want 0", allocs)
	}
}

// TestRefreshSELLZeroAllocs: the values-only numeric re-setup stays
// zero-allocation with a SELL-format finest level on a 14^3 grid
// (FillValues walks the chunks on the caller at one worker, with no
// closure).
func TestRefreshSELLZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector bypasses sync.Pool arena recycling, charging spurious allocations")
	}
	g := gen.Laplace3D(14, 14, 14)
	a := gen.Laplacian(g, 1e-2)
	h, err := NewAMG(a, AMGOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f := h.Levels[0].Format(); f != FormatSELL {
		t.Fatalf("finest level format %v, want SELL", f)
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
		t.Fatalf("SELL Hierarchy.Refresh: %v allocs/op, want 0", allocs)
	}
}

func TestRefreshZeroAllocs(t *testing.T) {
	checkRefreshZeroAllocs(t, AMGOptions{Threads: 1})
}

// TestRefreshPointSGSZeroAllocs: with the point Gauss-Seidel smoother a
// Refresh keeps the symbolic phase's color sets and refills only each
// smoother's inverse diagonal, so it allocates nothing either.
func TestRefreshPointSGSZeroAllocs(t *testing.T) {
	checkRefreshZeroAllocs(t, AMGOptions{Threads: 1, Smoother: SmootherPointSGS})
}

// checkRefreshZeroAllocs builds a hierarchy with opt on a 12^3 grid and
// fails if a steady-state Refresh allocates.
func checkRefreshZeroAllocs(t *testing.T, opt AMGOptions) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector bypasses sync.Pool arena recycling, charging spurious allocations")
	}
	g := gen.Laplace3D(12, 12, 12)
	a := gen.Laplacian(g, 1e-2)
	h, err := NewAMG(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	// New same-pattern values: the steady-state re-setup input.
	a2 := a.Clone()
	for p := range a2.Val {
		a2.Val[p] *= 1.25
	}
	// Warm-up refreshes populate the arena scratch (the SpGEMM replay
	// accumulators) and the reused pivot array.
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
		t.Fatalf("Hierarchy.Refresh (smoother %d): %v allocs/op, want 0", opt.Smoother, allocs)
	}
}

func TestGSSweepZeroAllocs(t *testing.T) {
	g := gen.Laplace3D(12, 12, 12)
	a := gen.Laplacian(g, 1e-2)
	for name, build := range map[string]func() (*gs.Multicolor, error){
		"point":   func() (*gs.Multicolor, error) { return gs.NewPoint(a, 1) },
		"cluster": func() (*gs.Multicolor, error) { return NewClusterSGS(a, 1) },
	} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		n := a.Rows
		b := make([]float64, n)
		x := make([]float64, n)
		for i := range b {
			b[i] = float64(i%5) - 2
		}
		allocs := testing.AllocsPerRun(10, func() {
			m.Apply(b, x, 1, true)
		})
		if allocs != 0 {
			t.Fatalf("%s GS sweep: %v allocs/op, want 0", name, allocs)
		}
	}
}
