package color

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/graph"
)

// colorDigest is an FNV-64a digest of a coloring, vertex by vertex.
func colorDigest(colors []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range colors {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenColorDigestBitwise pins the exact colorings Parallel and
// ParallelDistance2 produce on Laplace3D 40³ and Elasticity3D 14³×3, at
// 1, 2 and 8 workers. The digests were computed with the worklist
// compacted by a separate par.Filter pass, before the compaction moved
// into the pass that applies each round's colors, so they prove that
// move bitwise neutral.
func TestGoldenColorDigestBitwise(t *testing.T) {
	for _, c := range []struct {
		name   string
		g      *graph.CSR
		d1, d2 uint64
	}{
		{"Laplace3D 40³", gen.Laplace3D(40, 40, 40), 0x6e47e9937ec535c1, 0x89dad1deedd696e7},
		{"Elasticity3D 14³×3", gen.Elasticity3D(14, 14, 14, 3), 0x31fa024e9bbb9640, 0x57110a9994432ac8},
	} {
		for _, th := range []int{1, 2, 8} {
			if got := colorDigest(Parallel(c.g, th)); got != c.d1 {
				t.Errorf("%s, %d workers: Parallel digest %#x, want %#x", c.name, th, got, c.d1)
			}
			if got := colorDigest(ParallelDistance2(c.g, th)); got != c.d2 {
				t.Errorf("%s, %d workers: ParallelDistance2 digest %#x, want %#x", c.name, th, got, c.d2)
			}
		}
	}
}
