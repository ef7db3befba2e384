// Package hash implements the deterministic pseudo-random hash functions
// used to assign vertex priorities in the MIS-2 algorithm (paper §V-A).
//
// The paper compares three schemes (Table I):
//   - Fixed:   priorities chosen once, as in Bell et al. (the CUSP baseline);
//   - Xor:     h(iter, v) = f(f(iter) XOR f(v)) with f = 64-bit xorshift;
//   - Xor*:    the same construction with f = 64-bit xorshift* (xorshift
//     followed by a multiplicative step), which breaks the iteration-to-
//     iteration correlation that makes plain xorshift perform poorly.
//
// Both f functions are due to Marsaglia.
//
//amg:deterministic
package hash

// Xorshift64 is Marsaglia's 64-bit xorshift generator step.
// Note Xorshift64(0) == 0; callers salt inputs so 0 never occurs for
// meaningful states (vertex ids are offset by 1).
func Xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// Xorshift64Star is Marsaglia's xorshift* generator: xorshift followed by a
// multiplication by an odd constant, which decorrelates successive salted
// inputs (paper §V-A).
func Xorshift64Star(x uint64) uint64 {
	x ^= x << 12
	x ^= x >> 25
	x ^= x << 27
	return x * 0x2545F4914F6CDD1D
}

// Func is a 64-bit mixing function.
type Func func(uint64) uint64

// Kind selects a priority scheme for the MIS-2 algorithm.
type Kind int

const (
	// XorStar is h(iter,v) = f(f(iter) ^ f(v)) with f = xorshift*.
	// This is the scheme used for all paper experiments outside Table I.
	XorStar Kind = iota
	// Xor is the same construction with plain xorshift (poor; Table I).
	Xor
	// Fixed uses h(0, v) for every iteration, reproducing Bell et al.'s
	// fixed priorities.
	Fixed
)

// String returns the Table I column name of the kind.
func (k Kind) String() string {
	switch k {
	case XorStar:
		return "Xor* Hash"
	case Xor:
		return "Xor Hash"
	case Fixed:
		return "Fixed"
	}
	return "unknown"
}

// Priority returns the pseudo-random priority h(iter, v) for the kind.
// Vertex ids are offset by 1 so that vertex 0 does not map through the
// xorshift fixed point at 0.
func (k Kind) Priority(iter uint64, v uint64) uint64 {
	switch k {
	case XorStar:
		return Xorshift64Star(Xorshift64Star(iter+1) ^ Xorshift64Star(v+1))
	case Xor:
		return Xorshift64(Xorshift64(iter+1) ^ Xorshift64(v+1))
	default: // Fixed
		return Xorshift64Star(Xorshift64Star(1) ^ Xorshift64Star(v+1))
	}
}

// fpSalt seeds the fingerprint chain (the 64-bit golden ratio, the
// usual sequence-breaking constant); fpMul is the odd xorshift*
// multiplier, reused as an FNV-style diffusion step.
const (
	fpSalt = 0x9E3779B97F4A7C15
	fpMul  = 0x2545F4914F6CDD1D
)

// fpMix folds one value into a running fingerprint with an xor-multiply
// step (FNV-1a with a 64-bit odd multiplier): two operations per element
// keep fingerprinting a small fraction of a numeric re-setup, while the
// multiply chain makes the result position-sensitive. The final
// avalanche in PatternFingerprint diffuses the remaining low-bit bias.
func fpMix(h, v uint64) uint64 {
	return (h ^ v) * fpMul
}

// PatternFingerprint computes a deterministic 64-bit fingerprint of a CSR
// sparsity pattern: the dimensions, row boundaries, and column indices,
// independent of the stored values. Two matrices share a fingerprint
// exactly when they have the same pattern (up to hash collision), which
// is the "same pattern, new values" precondition of the symbolic/numeric
// re-setup split: plan replays and Hierarchy.Refresh check it before
// reusing cached SpGEMM patterns. Allocation-free and O(rows + nnz).
func PatternFingerprint(rows, cols int, rowPtr []int, col []int32) uint64 {
	h := fpMix(fpSalt, uint64(rows))
	h = fpMix(h, uint64(cols))
	for _, p := range rowPtr {
		h = fpMix(h, uint64(p))
	}
	for _, c := range col {
		h = fpMix(h, uint64(uint32(c)))
	}
	return Xorshift64Star(h)
}

// FingerprintSeed is the canonical chain seed for Combine-based
// fingerprints, so independent fingerprint kinds (patterns, partitions,
// composed cache keys) all start from the same constant and differ only
// by what they fold in.
const FingerprintSeed uint64 = fpSalt

// Combine folds v into a running 64-bit fingerprint h with the same
// xor-multiply step PatternFingerprint uses internally. Chains built
// with Combine are position-sensitive; finish them with Finalize to
// diffuse the remaining low-bit bias before using the result as a hash
// key.
func Combine(h, v uint64) uint64 { return fpMix(h, v) }

// Finalize applies the avalanche step ending every fingerprint chain.
func Finalize(h uint64) uint64 { return Xorshift64Star(h) }
