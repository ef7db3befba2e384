// The Figure 2 ablation grid: five implementations, each adding one of the
// paper's four optimizations (§V) on top of the previous one.
package mis

import (
	"mis2go/internal/graph"
	"mis2go/internal/hash"
	"mis2go/internal/par"
)

// Variant identifies one rung of the cumulative optimization ladder.
type Variant int

const (
	// VariantBaseline is the reference implementation of Bell's general
	// MIS-k algorithm called with k=2: fixed priorities, full-vertex
	// sweeps, uncompressed tuples. This is also the algorithm CUSP and
	// ViennaCL implement (Figures 6/7, Table IV).
	VariantBaseline Variant = iota
	// VariantRandomized adds per-iteration xorshift* priorities (§V-A).
	VariantRandomized
	// VariantWorklists adds the dual worklists, compacted in place by the
	// passes that decide their survivors, and the k=2-specialized column
	// minimum of Algorithm 1 (§V-B).
	VariantWorklists
	// VariantPacked adds single-word packed status tuples (§V-C).
	VariantPacked
	// VariantSIMD adds unrolled inner reductions for graphs with average
	// degree >= 16 (§V-D); this is the full Algorithm 1 as shipped.
	VariantSIMD

	// NumVariants is the number of ablation rungs.
	NumVariants = 5
)

// String returns the Figure 2 label of the variant.
func (v Variant) String() string {
	switch v {
	case VariantBaseline:
		return "Baseline"
	case VariantRandomized:
		return "Random priority"
	case VariantWorklists:
		return "Worklists"
	case VariantPacked:
		return "Packed Status"
	case VariantSIMD:
		return "SIMD"
	}
	return "unknown"
}

// MIS2Variant runs the requested ablation configuration with the given
// worker count (0 = GOMAXPROCS). All variants are deterministic and
// produce a valid MIS-2, but with different speed (Figure 2) and, for
// Baseline, a different (fixed-priority) result set.
func MIS2Variant(g *graph.CSR, variant Variant, threads int) Result {
	rt := par.New(threads)
	switch variant {
	case VariantBaseline:
		return BellMISK(g, BellOptions{K: 2, Rehash: false, Hash: hash.Fixed, Threads: threads})
	case VariantRandomized:
		return BellMISK(g, BellOptions{K: 2, Rehash: true, Hash: hash.XorStar, Threads: threads})
	case VariantWorklists:
		return mis2Unpacked(g, hash.XorStar, rt)
	case VariantPacked:
		return mis2Packed(g, hash.XorStar, false, false, rt)
	default: // VariantSIMD
		return mis2Packed(g, hash.XorStar, g.AvgDegree() >= MinSIMDDegree, false, rt)
	}
}
