package krylov

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// TestCGBitwiseGolden pins CGCtx's output bits: the sha256 of x (each
// value's IEEE bits, little endian, in row order) and the Stats of three
// right-hand sides on Laplace3D 16³. It runs AMG on the hierarchy's SELL
// fine operator and Jacobi on CSR, at 1, 2 and 8 workers. Any change to
// the CG recurrence's summation order (a second dot accumulator, a
// reordered fused pass) moves these bits.
func TestCGBitwiseGolden(t *testing.T) {
	a := gen.DirichletLaplacian(gen.Laplace3D(16, 16, 16), 6.5)
	n := a.Rows
	h, err := amg.Build(a, amg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jac, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([][]float64, 3)
	for j := range rhs {
		rhs[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		rhs[0][i] = 1
		rhs[1][i] = math.Sin(0.37*float64(i)) + float64(i%7)
		if i%97 == 0 {
			rhs[2][i] = float64(i%5) - 2
		}
	}
	type golden struct {
		iters  int
		relres uint64 // math.Float64bits of Stats.RelResidual
		x      string // sha256 of x
	}
	want := map[string][]golden{
		"amg": {
			{10, 0x3da48e790564e62e, "bff14a92f96d8c8d0f33b781a47e1ea6b019f63ad951fa47db546715ca32b874"},
			{10, 0x3da2513f02148a1d, "af819e308f796e12fc19a573a8d70740efbe9fe12994cad9e1bf4d45e61be950"},
			{9, 0x3dd768d6cf6d64f2, "95e625f6cfc43712f8f1ca4f114dd33d50ec3f80e4fbc69c1b546e823c09dc2d"},
		},
		"jacobi": {
			{35, 0x3dd4ef27d20760c8, "310e45875ed20152a9398a9aa57bbe15154212541056ca4298ab382a43322b9f"},
			{47, 0x3dcf800c308c0c36, "ca06f3ab6162f72cff9b7c951e85ab62439325c4a10fac51585c5fada0b7244e"},
			{47, 0x3dd3f6270b6d54e7, "ca63bfd1311d990dc2ab6b09f7020e7993712459d47d0059cc9c659a4cede638"},
		},
	}
	x := make([]float64, n)
	buf := make([]byte, 8*n)
	for _, c := range []struct {
		name string
		op   sparse.Operator
		m    Preconditioner
	}{{"amg", h.FineOperator(), h}, {"jacobi", a, jac}} {
		for _, w := range []int{1, 2, 8} {
			rt := par.New(w)
			for j, b := range rhs {
				clear(x)
				st, err := CGCtx(nil, rt, c.op, b, x, Options{Tol: 1e-10, MaxIter: 500, M: c.m})
				if err != nil || !st.Converged {
					t.Fatalf("%s at %d workers, rhs %d: %+v, %v", c.name, w, j, st, err)
				}
				for i, v := range x {
					binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
				}
				sum := sha256.Sum256(buf)
				got := golden{st.Iterations, math.Float64bits(st.RelResidual), hex.EncodeToString(sum[:])}
				if g := want[c.name]; j >= len(g) || got != g[j] {
					t.Errorf("%s at %d workers, rhs %d: got {%d, %#x, %q}", c.name, w, j, got.iters, got.relres, got.x)
				}
			}
		}
	}
}

// TestGMRESBitwiseGolden pins GMRESCtx's output bits the way
// TestCGBitwiseGolden pins CG's: the sha256 of x and the Stats of three
// right-hand sides on Laplace3D 16³ with restart 30, under AMG on the
// hierarchy's SELL fine operator and Jacobi and the identity on CSR, at
// 1, 2 and 8 workers. Any change to the Arnoldi process's summation
// order (dot's two accumulators, the Gram-Schmidt order, the Givens
// updates) moves these bits.
func TestGMRESBitwiseGolden(t *testing.T) {
	a := gen.DirichletLaplacian(gen.Laplace3D(16, 16, 16), 6.5)
	n := a.Rows
	h, err := amg.Build(a, amg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jac, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([][]float64, 3)
	for j := range rhs {
		rhs[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		rhs[0][i] = 1
		rhs[1][i] = math.Sin(0.37*float64(i)) + float64(i%7)
		if i%97 == 0 {
			rhs[2][i] = float64(i%5) - 2
		}
	}
	type golden struct {
		iters  int
		relres uint64 // math.Float64bits of Stats.RelResidual
		x      string // sha256 of x
	}
	want := map[string][]golden{
		"amg": {
			{9, 0x3de10f0270a63eba, "1781f6507d1d5f0827398e1dfab3f9491506ee5563c7fb266732f232edfbe160"},
			{9, 0x3ddfcae326873eae, "c2f9f9ce3f99d147d042b3392f29909fb5ab7edad919b1484a1f4e02846a709a"},
			{9, 0x3dd8bea2047d29e2, "9c42e40873f1770fe771a79144ece18caa12a397d2bf2aa106c8f77dd2eb79b7"},
		},
		"jacobi": {
			{36, 0x3dc899f996dedaff, "d3d04092a4bb2ee336e58824e3fbebce6f52aae91279f381f37b25642a345a8f"},
			{47, 0x3dd8df8942c98bc9, "2c8ba55853f92a01ee3edd283124261cb56d3614b8e3a405c6d5e15c732ef15b"},
			{48, 0x3dd8d8d381df79c8, "ca4713a96260f79d72a6e953ef8f6e2be02590567cac04a82002aa6a9ab0f47f"},
		},
		"identity": {
			{36, 0x3dc899f73d2df7a4, "1015387a22130b86986c9b6cc70150ff9e78bdd0897f6979a9d252d91d733cfc"},
			{47, 0x3dd8df895534b125, "eebdefa9c35bc2af7c011f3fd1c88767ab3bcf14bcbe03d5ee7566ae9f3b473e"},
			{48, 0x3dd8d8d38e162c56, "addd4c377a2096414abf81f232e3f485b70050884fcfb5a46c117e4d9e3acbcb"},
		},
	}
	x := make([]float64, n)
	buf := make([]byte, 8*n)
	for _, c := range []struct {
		name string
		op   sparse.Operator
		m    Preconditioner
	}{{"amg", h.FineOperator(), h}, {"jacobi", a, jac}, {"identity", a, identityPrec{}}} {
		for _, w := range []int{1, 2, 8} {
			rt := par.New(w)
			for j, b := range rhs {
				clear(x)
				st, err := GMRESCtx(nil, rt, c.op, b, x, 30, Options{Tol: 1e-10, MaxIter: 500, M: c.m})
				if err != nil || !st.Converged {
					t.Fatalf("%s at %d workers, rhs %d: %+v, %v", c.name, w, j, st, err)
				}
				for i, v := range x {
					binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
				}
				sum := sha256.Sum256(buf)
				got := golden{st.Iterations, math.Float64bits(st.RelResidual), hex.EncodeToString(sum[:])}
				if g := want[c.name]; j >= len(g) || got != g[j] {
					t.Errorf("%s at %d workers, rhs %d: got {%d, %#x, %q}", c.name, w, j, got.iters, got.relres, got.x)
				}
			}
		}
	}
}
