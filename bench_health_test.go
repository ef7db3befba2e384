package mis2go_test

import (
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
)

// The health-guard pair measures the per-iteration cost of the guard:
// identical Jacobi-preconditioned CG solves through the same workspace,
// one unguarded and one with the guard watching every
// iteration's relative residual. The guard reads only the scalar the
// convergence test already computed, so the ratio
// HealthGuard_vs_Plain (CGNoGuard/CGHealthGuard) must stay ~1.

func benchCGGuard(b *testing.B, guard bool) {
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
		if _, err := krylov.CGCtx(nil, rt, a, rhs, x, krylov.Options{Tol: 1e-8, MaxIter: 400, M: m, Work: ws, Health: guard}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCGNoGuard(b *testing.B)     { benchCGGuard(b, false) }
func BenchmarkCGHealthGuard(b *testing.B) { benchCGGuard(b, true) }
