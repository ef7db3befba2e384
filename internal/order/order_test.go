package order

import (
	"math"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// TestRCMIsPermutation: the ordering is a valid permutation, for
// connected meshes and graphs with isolated vertices.
func TestRCMIsPermutation(t *testing.T) {
	for name, g := range map[string]func() *sparse.Matrix{
		"laplace3d": func() *sparse.Matrix { return gen.Laplacian(gen.Laplace3D(12, 12, 12), 0.1) },
		"randomfem": func() *sparse.Matrix { return gen.Laplacian(gen.RandomFEM(8, 8, 8, 12, 3), 0.1) },
	} {
		a := g()
		perm := RCM(a.Graph())
		if err := checkPerm(perm, a.Rows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestRCMReducesBandwidth: on a deterministic irregular mesh the RCM
// ordering must not increase the bandwidth, and on a shuffled band
// matrix it must reduce it substantially.
func TestRCMReducesBandwidth(t *testing.T) {
	// A 3D mesh numbered naturally has bandwidth ~nx*ny; scramble the
	// numbering and check RCM recovers a narrow band.
	a := gen.Laplacian(gen.Laplace3D(10, 10, 10), 0.1)
	n := a.Rows
	shuffle := make([]int32, n)
	for i := range shuffle {
		shuffle[i] = int32((i*7919 + 13) % n) // 7919 coprime to 1000
	}
	scrambled, err := PermuteMatrix(a, shuffle)
	if err != nil {
		t.Fatal(err)
	}
	bwScrambled := Bandwidth(scrambled)
	perm := RCM(scrambled.Graph())
	reordered, err := PermuteMatrix(scrambled, perm)
	if err != nil {
		t.Fatal(err)
	}
	bwRCM := Bandwidth(reordered)
	if bwRCM*4 > bwScrambled {
		t.Fatalf("RCM bandwidth %d, scrambled %d: expected at least 4x reduction", bwRCM, bwScrambled)
	}
	t.Logf("bandwidth: natural %d, scrambled %d, RCM %d", Bandwidth(a), bwScrambled, bwRCM)
}

// TestRCMDeterministic: two runs produce the identical ordering.
func TestRCMDeterministic(t *testing.T) {
	a := gen.Laplacian(gen.RandomFEM(6, 6, 6, 10, 5), 0.1)
	g := a.Graph()
	p1 := RCM(g)
	p2 := RCM(g)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("orderings differ at %d", i)
		}
	}
}

// TestPermuteMatrixSemantics: P·A·Pᵀ relabels entries exactly —
// (PAPᵀ)[inv[i], inv[j]] == A[i, j] — and the result passes Validate.
func TestPermuteMatrixSemantics(t *testing.T) {
	a := gen.Laplacian(gen.Laplace2D(7, 5), 0.3)
	perm := RCM(a.Graph())
	b, err := PermuteMatrix(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("permuted matrix invalid: %v", err)
	}
	inv := Inverse(perm)
	get := func(m *sparse.Matrix, i, j int) float64 {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if int(m.Col[p]) == j {
				return m.Val[p]
			}
		}
		return 0
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := int(a.Col[p])
			if got := get(b, int(inv[i]), int(inv[j])); got != a.Val[p] {
				t.Fatalf("entry (%d,%d): permuted %g, want %g", i, j, got, a.Val[p])
			}
		}
	}

	// SpMV equivariance: P(Ax) == (PAPᵀ)(Px), bitwise equal summands in
	// general differ in order, so compare within a tolerance here (the
	// 0-ULP contract is between formats, not orderings).
	rt := par.New(1)
	n := a.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	y := make([]float64, n)
	a.SpMV(rt, x, y)
	px := make([]float64, n)
	if err := PermuteVector(px, x, perm); err != nil {
		t.Fatal(err)
	}
	py := make([]float64, n)
	b.SpMV(rt, px, py)
	back := make([]float64, n)
	if err := InversePermuteVector(back, py, perm); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(back[i]-y[i]) > 1e-12*(1+math.Abs(y[i])) {
			t.Fatalf("SpMV equivariance: [%d] %g vs %g", i, back[i], y[i])
		}
	}
}

// TestPermuteVectorRoundTrip: inverse-permute undoes permute bitwise.
func TestPermuteVectorRoundTrip(t *testing.T) {
	n := 257
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32((i*101 + 7) % n)
	}
	if err := checkPerm(perm, n); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) * 1.25
	}
	fwd := make([]float64, n)
	back := make([]float64, n)
	if err := PermuteVector(fwd, x, perm); err != nil {
		t.Fatal(err)
	}
	if err := InversePermuteVector(back, fwd, perm); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if back[i] != x[i] {
			t.Fatalf("round trip: [%d] %g != %g", i, back[i], x[i])
		}
	}
}

// TestPermuteMatrixErrors: non-square matrices and malformed
// permutations are clean errors.
func TestPermuteMatrixErrors(t *testing.T) {
	rect := &sparse.Matrix{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}
	if _, err := PermuteMatrix(rect, []int32{0, 1}); err == nil {
		t.Fatal("accepted non-square matrix")
	}
	sq := &sparse.Matrix{Rows: 2, Cols: 2, RowPtr: []int{0, 0, 0}}
	for _, bad := range [][]int32{{0}, {0, 0}, {0, 2}, {1, -1}} {
		if _, err := PermuteMatrix(sq, bad); err == nil {
			t.Fatalf("accepted invalid permutation %v", bad)
		}
	}
}

// TestBandwidthEdge: empty and diagonal matrices have bandwidth 0.
func TestBandwidthEdge(t *testing.T) {
	if bw := Bandwidth(&sparse.Matrix{Rows: 0, Cols: 0, RowPtr: []int{0}}); bw != 0 {
		t.Fatalf("empty: bandwidth %d", bw)
	}
	diag := &sparse.Matrix{Rows: 5, Cols: 5, RowPtr: []int{0, 1, 2, 3, 4, 5},
		Col: []int32{0, 1, 2, 3, 4}, Val: []float64{1, 1, 1, 1, 1}}
	if bw := Bandwidth(diag); bw != 0 {
		t.Fatalf("identity: bandwidth %d", bw)
	}
}

// TestPermuteVectorRejectsMalformedPerms: duplicate, out-of-range, and
// length-mismatched permutations are descriptive errors (with dst
// untouched), never silent data corruption.
func TestPermuteVectorRejectsMalformedPerms(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	cases := map[string][]int32{
		"duplicate":  {0, 1, 1, 3},
		"outofrange": {0, 1, 2, 4},
		"negative":   {0, -1, 2, 3},
		"short":      {0, 1, 2},
	}
	for name, perm := range cases {
		dst := []float64{9, 9, 9, 9}
		if err := PermuteVector(dst, src, perm); err == nil {
			t.Fatalf("%s: PermuteVector accepted malformed permutation %v", name, perm)
		}
		for i, v := range dst {
			if v != 9 {
				t.Fatalf("%s: dst[%d] mutated to %g on rejected permutation", name, i, v)
			}
		}
		if err := InversePermuteVector(dst, src, perm); err == nil {
			t.Fatalf("%s: InversePermuteVector accepted malformed permutation %v", name, perm)
		}
	}
	// Length mismatch between the vectors and the permutation.
	if err := PermuteVector(make([]float64, 3), src, []int32{0, 1, 2, 3}); err == nil {
		t.Fatal("PermuteVector accepted dst shorter than perm")
	}
}

// TestPermuteMatrixRejectsMalformedPerms mirrors the vector validation
// on the symmetric matrix permutation.
func TestPermuteMatrixRejectsMalformedPerms(t *testing.T) {
	a := gen.Laplacian(gen.Laplace2D(4, 4), 0.1)
	for name, perm := range map[string][]int32{
		"duplicate":  dupPerm(a.Rows),
		"outofrange": rangePerm(a.Rows),
	} {
		if _, err := PermuteMatrix(a, perm); err == nil {
			t.Fatalf("%s: PermuteMatrix accepted malformed permutation", name)
		}
	}
}

func dupPerm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	p[1] = p[0]
	return p
}

func rangePerm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	p[n-1] = int32(n)
	return p
}
