package amg

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/sparse"
)

// hierarchyDigest is an FNV-64a digest of a hierarchy's numeric state:
// per level the operator A, prolongator P and restriction R (shape,
// pattern and value bits) and the spectral-radius estimate rho, then the
// output of one Precondition call on the fixed residual of
// preconditionOnce.
func hierarchyDigest(h *Hierarchy) uint64 {
	d := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		d.Write(b[:])
	}
	putMatrix := func(m *sparse.Matrix) {
		if m == nil {
			put(math.MaxUint64)
			return
		}
		put(uint64(m.Rows))
		put(uint64(m.Cols))
		for _, p := range m.RowPtr {
			put(uint64(p))
		}
		for _, c := range m.Col {
			put(uint64(c))
		}
		for _, v := range m.Val {
			put(math.Float64bits(v))
		}
	}
	put(uint64(len(h.Levels)))
	for _, l := range h.Levels {
		putMatrix(l.A)
		putMatrix(l.P)
		putMatrix(l.R)
		put(math.Float64bits(l.rho))
	}
	for _, v := range preconditionOnce(h) {
		put(math.Float64bits(v))
	}
	return d.Sum64()
}

// perturbSymmetric returns a copy of a with every off-diagonal entry
// scaled by a factor in (0.9, 1] that depends only on the unordered
// pair {i, j}: the pattern, the symmetry and the diagonal dominance of a
// stay, every value changes.
func perturbSymmetric(a *sparse.Matrix) *sparse.Matrix {
	b := a.Clone()
	for i := 0; i < b.Rows; i++ {
		for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
			j := int(b.Col[p])
			if j == i {
				continue
			}
			lo, hi := min(i, j), max(i, j)
			k := uint64(lo)*0x9E3779B97F4A7C15 ^ uint64(hi)*0xC2B2AE3D27D4EB4F
			b.Val[p] *= 1 - 0.1*float64(k>>40)/float64(1<<24)
		}
	}
	return b
}

// TestHierarchyDigestBitwise pins the f64 hierarchy bit for bit: every
// level's rho, the A/P/R values and one Precondition output, on
// Laplace3D 40³ and Elasticity3D 14³×3, at 1, 2 and 8 workers, after
// Build and after one Refresh onto perturbed same-pattern values. The
// digests were computed on the code that still carried the f32/auto
// value-storage path (transfer operators behind sparse.Operator views,
// levels refreshed through sparse.ValueFiller), so they prove its
// removal bitwise neutral for f64.
func TestHierarchyDigestBitwise(t *testing.T) {
	cases := []struct {
		name           string
		a              *sparse.Matrix
		build, refresh uint64
	}{
		{"laplace3d-40", gen.Laplacian(gen.Laplace3D(40, 40, 40), 1e-4), 0xa2ad6247f878ad40, 0x8404cae358cbdb8d},
		{"elasticity3d-14x3", gen.Laplacian(gen.Elasticity3D(14, 14, 14, 3), 1e-4), 0xe710da9167e087ef, 0x8b9dcf9120442eed},
	}
	for _, tc := range cases {
		a2 := perturbSymmetric(tc.a)
		for _, w := range []int{1, 2, 8} {
			h, err := Build(tc.a, Options{Threads: w})
			if err != nil {
				t.Fatalf("%s/%d: %v", tc.name, w, err)
			}
			if got := hierarchyDigest(h); got != tc.build {
				t.Errorf("%s, %d workers, Build: digest %#x, want %#x", tc.name, w, got, tc.build)
			}
			if err := h.Refresh(a2); err != nil {
				t.Fatalf("%s/%d: refresh: %v", tc.name, w, err)
			}
			if got := hierarchyDigest(h); got != tc.refresh {
				t.Errorf("%s, %d workers, Refresh: digest %#x, want %#x", tc.name, w, got, tc.refresh)
			}
		}
	}
}

// TestHierarchyDigestPointSGSBitwise pins the point multicolor SGS
// smoother the same way: hierarchyDigest after Build and after one
// Refresh onto perturbed values, at 1, 2 and 8 workers, on problems kept
// small so the race-detector run stays short. The digests were computed
// on the code that still carried the Chebyshev and cluster-SGS AMG
// smoothers, so they prove that removal bitwise neutral for point SGS.
func TestHierarchyDigestPointSGSBitwise(t *testing.T) {
	cases := []struct {
		name           string
		a              *sparse.Matrix
		build, refresh uint64
	}{
		{"laplace3d-24", gen.Laplacian(gen.Laplace3D(24, 24, 24), 1e-4), 0x8837c7705eadcbea, 0x912d60e9fbd2a753},
		{"elasticity3d-10x3", gen.Laplacian(gen.Elasticity3D(10, 10, 10, 3), 1e-4), 0x69f491999cdc2456, 0x6b5cb28457e9ec26},
	}
	for _, tc := range cases {
		a2 := perturbSymmetric(tc.a)
		for _, w := range []int{1, 2, 8} {
			h, err := Build(tc.a, Options{Threads: w, Smoother: SmootherPointSGS})
			if err != nil {
				t.Fatalf("%s/%d: %v", tc.name, w, err)
			}
			if got := hierarchyDigest(h); got != tc.build {
				t.Errorf("%s, %d workers, Build: digest %#x, want %#x", tc.name, w, got, tc.build)
			}
			if err := h.Refresh(a2); err != nil {
				t.Fatalf("%s/%d: refresh: %v", tc.name, w, err)
			}
			if got := hierarchyDigest(h); got != tc.refresh {
				t.Errorf("%s, %d workers, Refresh: digest %#x, want %#x", tc.name, w, got, tc.refresh)
			}
		}
	}
}
