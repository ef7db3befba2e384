package mis

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/hash"
)

// Golden regression tests: the algorithms are deterministic, so exact
// outputs on fixed inputs are stable contracts. A change to any of these
// numbers means the priority sequence, packing, or phase logic changed —
// which silently invalidates every recorded experiment. Update them only
// deliberately, and record the reason in CHANGES.md.

func TestGoldenLaplace3D20(t *testing.T) {
	g := gen.Laplace3D(20, 20, 20)
	res := MIS2(g, Options{})
	if len(res.InSet) != 771 || res.Iterations != 9 {
		t.Fatalf("golden drift: size=%d iters=%d (want 771, 9)", len(res.InSet), res.Iterations)
	}
	// First and last members pin the exact set, not just its size.
	if res.InSet[0] != 0 || res.InSet[len(res.InSet)-1] != 7999 {
		t.Fatalf("golden drift: first=%d last=%d", res.InSet[0], res.InSet[len(res.InSet)-1])
	}
}

func TestGoldenHashKindsLaplace2D(t *testing.T) {
	g := gen.Laplace2D(50, 50)
	got := map[hash.Kind][2]int{}
	for _, k := range []hash.Kind{hash.XorStar, hash.Xor, hash.Fixed} {
		r := MIS2(g, Options{Hash: k})
		got[k] = [2]int{len(r.InSet), r.Iterations}
	}
	want := map[hash.Kind][2]int{
		hash.XorStar: {353, 6},
		hash.Xor:     {377, 7},
		hash.Fixed:   {363, 9},
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("golden drift for %v: got %v want %v", k, got[k], w)
		}
	}
}

func TestGoldenBellBaseline(t *testing.T) {
	g := gen.Laplace2D(40, 40)
	r := BellMISK(g, BellOptions{K: 2})
	if len(r.InSet) != 233 || r.Iterations != 8 {
		t.Fatalf("golden drift: size=%d iters=%d (want 233, 8)", len(r.InSet), r.Iterations)
	}
}

func TestGoldenLuby(t *testing.T) {
	g := gen.Laplace2D(40, 40)
	r := LubyMIS1(g, hash.XorStar, 0)
	if len(r.InSet) != 589 || r.Iterations != 5 {
		t.Fatalf("golden drift: size=%d iters=%d (want 589, 5)", len(r.InSet), r.Iterations)
	}
}

// misDigest is an FNV-64a digest of everything a MIS2 run reports: the
// set, then the per-round worklist sizes (whose count is Iterations).
func misDigest(r Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(len(r.InSet)))
	for _, v := range r.InSet {
		put(uint64(v))
	}
	put(uint64(len(r.Worklist1)))
	for i := range r.Worklist1 {
		put(uint64(r.Worklist1[i]))
		put(uint64(r.Worklist2[i]))
	}
	return h.Sum64()
}

// TestGoldenDigestLaplace3D64 pins the exact output of MIS2 on the
// mis2-coarsen workload's level-0 graph, not just its size: the set and
// the worklist sizes of every round, at 1, 2 and 8 workers for each
// priority scheme. The digests were computed with the compaction done
// by separate par.Filter passes, before it moved into the Refresh
// Column and Decide passes, so they prove that move bitwise neutral.
func TestGoldenDigestLaplace3D64(t *testing.T) {
	g := gen.Laplace3D(64, 64, 64)
	want := map[hash.Kind]uint64{
		hash.XorStar: 0xdb3414f2ce7578f4,
		hash.Xor:     0xe6820d4a283c5c76,
		hash.Fixed:   0x787b2395ae28ac11,
	}
	for _, k := range []hash.Kind{hash.XorStar, hash.Xor, hash.Fixed} {
		for _, th := range []int{1, 2, 8} {
			r := MIS2(g, Options{Hash: k, Threads: th, CollectStats: true})
			if got := misDigest(r); got != want[k] {
				t.Errorf("%v, %d workers: digest %#x, want %#x (size %d, %d iterations)",
					k, th, got, want[k], len(r.InSet), r.Iterations)
			}
		}
	}
}

// setDigest is an FNV-64a digest of an MIS-1 run: the set, then the
// iteration count.
func setDigest(r Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(len(r.InSet)))
	for _, v := range r.InSet {
		put(uint64(v))
	}
	put(uint64(r.Iterations))
	return h.Sum64()
}

// TestGoldenLubyDigestBitwise pins the exact LubyMIS1 set and iteration
// count on Laplace2D 40x40 and on its square G² (the Lemma IV.2 graph),
// at 1, 2 and 8 workers. The digests were computed with the worklist
// compacted by a separate par.Filter pass, before the compaction moved
// into the pass that decides the vertices, so they prove that move
// bitwise neutral.
func TestGoldenLubyDigestBitwise(t *testing.T) {
	g := gen.Laplace2D(40, 40)
	for _, c := range []struct {
		name string
		g    *graph.CSR
		want uint64
	}{
		{"G", g, 0x41325b54301e256e},
		{"G²", g.Square(), 0xb46a7a409e851dd5},
	} {
		for _, th := range []int{1, 2, 8} {
			r := LubyMIS1(c.g, hash.XorStar, th)
			if got := setDigest(r); got != c.want {
				t.Errorf("%s, %d workers: digest %#x, want %#x (size %d, %d iterations)",
					c.name, th, got, c.want, len(r.InSet), r.Iterations)
			}
		}
	}
}
