package schwarz

import (
	"math"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

func poisson(nx, ny int) (*sparse.Matrix, []float64) {
	g := gen.Laplace2D(nx, ny)
	a := gen.DirichletLaplacian(g, 4)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = math.Sin(0.07*float64(i)) + 1
	}
	return a, b
}

func TestSchwarzPreconditionedCG(t *testing.T) {
	a, b := poisson(40, 40)
	p, err := New(a, Options{Subdomains: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSubdomains() == 0 || !p.HasCoarse() {
		t.Fatalf("unexpected structure: %d subdomains, coarse=%v", p.NumSubdomains(), p.HasCoarse())
	}
	x := make([]float64, a.Rows)
	st, err := krylov.CGCtx(nil, par.New(0), a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 500, M: p})
	if err != nil || !st.Converged {
		t.Fatalf("Schwarz-CG failed: %v %+v", err, st)
	}
	// Must beat unpreconditioned CG.
	y := make([]float64, a.Rows)
	stPlain, err := krylov.CGCtx(nil, par.New(0), a, b, y, krylov.Options{Tol: 1e-10, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations >= stPlain.Iterations {
		t.Fatalf("Schwarz iterations %d >= plain %d", st.Iterations, stPlain.Iterations)
	}
}

func TestCoarseLevelHelps(t *testing.T) {
	// The two-level method scales with subdomain count; one-level
	// degrades. At fixed size, two-level should need no more iterations.
	a, b := poisson(36, 36)
	rt := par.New(0)
	iters := func(noCoarse bool) int {
		p, err := New(a, Options{Subdomains: 16, NoCoarse: noCoarse})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Rows)
		st, err := krylov.CGCtx(nil, rt, a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 1000, M: p})
		if err != nil || !st.Converged {
			t.Fatalf("noCoarse=%v: %v %+v", noCoarse, err, st)
		}
		return st.Iterations
	}
	one, two := iters(true), iters(false)
	if two > one {
		t.Fatalf("coarse level hurt: %d (two-level) vs %d (one-level)", two, one)
	}
}

func TestOverlapImprovesConvergence(t *testing.T) {
	a, b := poisson(32, 32)
	rt := par.New(0)
	iters := func(overlap int) int {
		p, err := New(a, Options{Subdomains: 8, Overlap: overlap, NoCoarse: true})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Rows)
		st, err := krylov.CGCtx(nil, rt, a, b, x, krylov.Options{Tol: 1e-10, MaxIter: 2000, M: p})
		if err != nil || !st.Converged {
			t.Fatalf("overlap=%d: %v %+v", overlap, err, st)
		}
		return st.Iterations
	}
	if i2, i1 := iters(2), iters(1); i2 > i1+3 {
		t.Fatalf("more overlap degraded convergence: %d vs %d", i2, i1)
	}
}

func TestDeterministicAcrossThreads(t *testing.T) {
	// Bitwise determinism of the pooled subdomain fan at 1/2/8 workers,
	// with the local AMG threshold forced low so large subdomains
	// exercise the hierarchy path, not just dense LU. Three inputs: one
	// apply, a full Schwarz-preconditioned CG solve, and a CG solve after
	// a numeric Refresh on scaled values. Solutions compare bitwise
	// (Float64bits, so -0 never matches +0) with equal iteration counts.
	a, b := poisson(32, 32)
	a2 := scaleValues(a, 1.5)
	type output struct {
		name  string
		v     []float64
		iters int
	}
	run := func(threads int) []output {
		p, err := New(a, Options{Subdomains: 8, Threads: threads, LocalAMGThreshold: 64})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.AMGLocal == 0 {
			t.Fatalf("threshold 64 produced no AMG locals: %+v", st)
		}
		rt := par.New(threads)
		z := make([]float64, a.Rows)
		p.Precondition(b, z)
		solve := func(m *sparse.Matrix) ([]float64, int) {
			x := make([]float64, m.Rows)
			st, err := krylov.CGCtx(nil, rt, m, b, x, krylov.Options{Tol: 1e-10, MaxIter: 500, M: p})
			if err != nil || !st.Converged {
				t.Fatalf("threads=%d: Schwarz-CG failed: %v %+v", threads, err, st)
			}
			return x, st.Iterations
		}
		x, it := solve(a)
		if err := p.Refresh(a2); err != nil {
			t.Fatal(err)
		}
		x2, it2 := solve(a2)
		return []output{{"apply", z, 0}, {"CG solve", x, it}, {"CG solve after Refresh", x2, it2}}
	}
	want := run(1)
	for _, threads := range []int{2, 8} {
		for k, got := range run(threads) {
			w := want[k]
			if got.iters != w.iters {
				t.Fatalf("threads=%d %s: %d iterations, want %d", threads, w.name, got.iters, w.iters)
			}
			for i := range w.v {
				if math.Float64bits(got.v[i]) != math.Float64bits(w.v[i]) {
					t.Fatalf("threads=%d %s nondeterministic at %d: %g vs %g", threads, w.name, i, got.v[i], w.v[i])
				}
			}
		}
	}
}

func TestPreconditionerIsSymmetricOperator(t *testing.T) {
	// Additive Schwarz with exact local solves is symmetric:
	// <M r1, r2> == <r1, M r2>.
	a, _ := poisson(20, 20)
	p, err := New(a, Options{Subdomains: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	r1 := make([]float64, n)
	r2 := make([]float64, n)
	for i := 0; i < n; i++ {
		r1[i] = math.Sin(0.3 * float64(i))
		r2[i] = math.Cos(0.11 * float64(i))
	}
	z1 := make([]float64, n)
	z2 := make([]float64, n)
	p.Precondition(r1, z1)
	p.Precondition(r2, z2)
	var a12, a21 float64
	for i := 0; i < n; i++ {
		a12 += z1[i] * r2[i]
		a21 += r1[i] * z2[i]
	}
	if math.Abs(a12-a21) > 1e-9*(1+math.Abs(a12)) {
		t.Fatalf("not symmetric: %g vs %g", a12, a21)
	}
}

func TestErrorCases(t *testing.T) {
	bad := &sparse.Matrix{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}
	if _, err := New(bad, Options{}); err == nil {
		t.Fatal("non-square accepted")
	}
	empty := &sparse.Matrix{Rows: 0, Cols: 0, RowPtr: []int{0}}
	if _, err := New(empty, Options{}); err == nil {
		t.Fatal("empty accepted")
	}
	a, _ := poisson(10, 10)
	if _, err := New(a, Options{Overlap: -1}); err == nil {
		t.Fatal("negative overlap accepted")
	}
	// With dense local solves forced, a subdomain above sparse.MaxDenseN
	// must be rejected with a helpful error, not an OOM.
	big, _ := poisson(100, 100)
	if _, err := New(big, Options{Subdomains: 2, NoCoarse: true, LocalAMGThreshold: -1}); err == nil {
		t.Fatal("oversized dense subdomain accepted")
	}
	// The same configuration is legal by default: large subdomains get
	// per-subdomain AMG hierarchies instead of dense factorizations.
	p, err := New(big, Options{Subdomains: 2, NoCoarse: true})
	if err != nil {
		t.Fatalf("AMG local solver rejected a large subdomain: %v", err)
	}
	if st := p.Stats(); st.AMGLocal != p.NumSubdomains() || st.DenseLocal != 0 {
		t.Fatalf("expected all-AMG locals, got %+v", st)
	}
	// Apply-only operator formats expose no CSR entries to extract.
	sell, err := sparse.NewOperator(a, sparse.FormatSELL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sell, Options{}); err == nil {
		t.Fatal("SELL operator accepted")
	}
}

func TestDefaultsReasonable(t *testing.T) {
	a, b := poisson(40, 40)
	p, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSubdomains() < 2 {
		t.Fatalf("defaults produced %d subdomains", p.NumSubdomains())
	}
	x := make([]float64, a.Rows)
	st, err := krylov.CGCtx(nil, par.New(0), a, b, x, krylov.Options{Tol: 1e-9, MaxIter: 1000, M: p})
	if err != nil || !st.Converged {
		t.Fatalf("defaults failed: %v %+v", err, st)
	}
}
