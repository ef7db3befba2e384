package hash

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestXorshiftNonZeroPreserving(t *testing.T) {
	// xorshift and xorshift* are bijections on nonzero inputs.
	f := func(x uint64) bool {
		if x == 0 {
			return Xorshift64(0) == 0
		}
		return Xorshift64(x) != 0 && Xorshift64Star(x) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorshiftDeterministic(t *testing.T) {
	for _, x := range []uint64{1, 42, 1 << 40, ^uint64(0)} {
		if Xorshift64(x) != Xorshift64(x) || Xorshift64Star(x) != Xorshift64Star(x) {
			t.Fatalf("hash of %d not deterministic", x)
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{XorStar: "Xor* Hash", Xor: "Xor Hash", Fixed: "Fixed"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind must stringify as unknown")
	}
}

func TestFixedIgnoresIteration(t *testing.T) {
	for v := uint64(0); v < 100; v++ {
		p0 := Fixed.Priority(0, v)
		for iter := uint64(1); iter < 20; iter++ {
			if Fixed.Priority(iter, v) != p0 {
				t.Fatalf("Fixed priority changed with iteration for v=%d", v)
			}
		}
	}
}

func TestRehashingKindsVaryByIteration(t *testing.T) {
	for _, k := range []Kind{XorStar, Xor} {
		same := 0
		for v := uint64(0); v < 200; v++ {
			if k.Priority(0, v) == k.Priority(1, v) {
				same++
			}
		}
		if same > 2 {
			t.Fatalf("%v: %d/200 priorities identical between iterations", k, same)
		}
	}
}

func TestRehashes(t *testing.T) {
	if !XorStar.Rehashes() || !Xor.Rehashes() || Fixed.Rehashes() {
		t.Fatal("Rehashes flags wrong")
	}
}

func TestPriorityBitBalance(t *testing.T) {
	// Sanity: xorshift* output bits should be roughly balanced over a
	// sequential input range (this is the statistical independence the
	// paper's §V-A depends on).
	n := 4096
	ones := 0
	for v := 0; v < n; v++ {
		ones += bits.OnesCount64(XorStar.Priority(3, uint64(v)))
	}
	mean := float64(ones) / float64(n)
	if mean < 28 || mean > 36 {
		t.Fatalf("mean popcount %.2f, want near 32", mean)
	}
}

func TestPatternFingerprintSensitivity(t *testing.T) {
	ptr := []int{0, 2, 4, 5}
	col := []int32{0, 1, 1, 2, 2}
	base := PatternFingerprint(3, 3, ptr, col)
	if base != PatternFingerprint(3, 3, ptr, col) {
		t.Fatal("fingerprint not deterministic")
	}
	// Copies with identical contents fingerprint identically.
	if got := PatternFingerprint(3, 3, append([]int(nil), ptr...), append([]int32(nil), col...)); got != base {
		t.Fatal("fingerprint depends on slice identity, not contents")
	}
	// Any single structural change must flip the fingerprint.
	perturbed := []uint64{
		PatternFingerprint(4, 3, ptr, col),
		PatternFingerprint(3, 4, ptr, col),
		PatternFingerprint(3, 3, []int{0, 1, 4, 5}, col),
		PatternFingerprint(3, 3, ptr, []int32{0, 2, 1, 2, 2}),
		PatternFingerprint(3, 3, ptr, col[:4]),
	}
	for i, fp := range perturbed {
		if fp == base {
			t.Fatalf("perturbation %d did not change the fingerprint", i)
		}
	}
}

func TestPatternFingerprintValueBlind(t *testing.T) {
	// The fingerprint reads only the pattern inputs; calling it twice on
	// the same pattern must agree regardless of what values a caller
	// stores alongside. (The API takes no values — this pins the empty
	// and single-row edge cases.)
	if PatternFingerprint(0, 0, []int{0}, nil) == PatternFingerprint(1, 1, []int{0, 1}, []int32{0}) {
		t.Fatal("trivial patterns collide")
	}
	if PatternFingerprint(0, 0, []int{0}, nil) != PatternFingerprint(0, 0, []int{0}, []int32{}) {
		t.Fatal("nil vs empty column slice must fingerprint identically")
	}
}

func TestPriorityDistinctAcrossVertices(t *testing.T) {
	seen := make(map[uint64]uint64)
	for v := uint64(0); v < 100000; v++ {
		p := XorStar.Priority(7, v)
		if prev, dup := seen[p]; dup {
			t.Fatalf("priority collision between v=%d and v=%d (64-bit, should be absent at this scale)", prev, v)
		}
		seen[p] = v
	}
}

// Rehashes reports whether the kind assigns new priorities each iteration.
func (k Kind) Rehashes() bool { return k != Fixed }
