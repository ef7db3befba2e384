package mis

import (
	"slices"
	"testing"

	"mis2go/internal/graph"
	"mis2go/internal/hash"
	"mis2go/internal/par"
)

// fuzzMISGraph builds a graph of 1 to 6000 vertices with about
// n*(degree%48)/2 edges, all among the first (1+span%8)/8 of the
// vertices; the rest stay isolated. With band > 0 each edge joins a
// vertex to one at most band ahead of it (a mesh-like, local graph);
// with band == 0 the endpoints are uniform. Local edges and an isolated
// tail make whole parallel blocks finish rounds ahead of the others, so
// their worklist segments come out empty while others keep every entry.
func fuzzMISGraph(seed uint64, size uint16, degree uint8, band uint16, span uint8) *graph.CSR {
	n := 1 + int(size)%6000
	active := max(1, n*(1+int(span%8))/8)
	m := n * int(degree%48) / 2
	edges := make([]graph.Edge, 0, m)
	state := seed | 1
	for i := 0; i < m; i++ {
		state = hash.Xorshift64Star(state)
		u := int(state % uint64(active))
		state = hash.Xorshift64Star(state)
		v := int(state % uint64(active))
		if band > 0 {
			v = (u + 1 + int(state%uint64(band))) % active
		}
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
	}
	return graph.FromEdges(n, edges)
}

// lubyOracleArcs bounds the graphs FuzzMIS2 also checks against
// LubyMIS1 on the square: squaring costs up to a degree-squared factor.
const lubyOracleArcs = 20000

// FuzzMIS2 checks that MIS2 returns a valid distance-2 maximal
// independent set and that the set, the round count and the per-round
// worklist sizes are identical at 1, 2 and 8 workers with the unrolled
// loops on and off. The priority scheme is seed%3. For the default
// scheme it also checks the unpacked Worklists variant of the Figure 2
// ablation against the same set. On graphs of at most lubyOracleArcs
// arcs it checks the set and round count of every priority scheme
// against LubyMIS1 on the square (Lemma IV.2), an oracle that keeps
// Algorithm 1's three passes per round. Its seed corpus is in
// testdata/fuzz/FuzzMIS2; run it with make fuzz.
func FuzzMIS2(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, degree uint8, band uint16, span uint8) {
		g := fuzzMISGraph(seed, size, degree, band, span)
		kind := hash.Kind(seed % 3)
		ref := MIS2(g, Options{Hash: kind, Threads: 1, CollectStats: true})
		if err := CheckMIS2(g, ref.InSet); err != nil {
			t.Fatal(err)
		}
		for _, th := range []int{1, 2, 8} {
			for _, noSIMD := range []bool{false, true} {
				var got Result
				if noSIMD {
					got = mis2Packed(g, kind, false, true, par.New(th))
				} else {
					got = MIS2(g, Options{Hash: kind, Threads: th, CollectStats: true})
				}
				if !slices.Equal(got.InSet, ref.InSet) || got.Iterations != ref.Iterations ||
					!slices.Equal(got.Worklist1, ref.Worklist1) || !slices.Equal(got.Worklist2, ref.Worklist2) {
					t.Fatalf("%d workers, noSIMD=%v: got size %d, %d iterations, worklists %v/%v; "+
						"want size %d, %d iterations, worklists %v/%v",
						th, noSIMD, len(got.InSet), got.Iterations, got.Worklist1, got.Worklist2,
						len(ref.InSet), ref.Iterations, ref.Worklist1, ref.Worklist2)
				}
			}
			if kind == hash.XorStar {
				got := MIS2Variant(g, VariantWorklists, th)
				if !slices.Equal(got.InSet, ref.InSet) || got.Iterations != ref.Iterations {
					t.Fatalf("Worklists variant, %d workers: size %d, %d iterations; want %d, %d",
						th, len(got.InSet), got.Iterations, len(ref.InSet), ref.Iterations)
				}
			}
		}
		if g.NumEdges() > lubyOracleArcs {
			return
		}
		sq := g.Square()
		for _, k := range []hash.Kind{hash.XorStar, hash.Xor, hash.Fixed} {
			got := MIS2(g, Options{Hash: k, Threads: 2})
			want := LubyMIS1(sq, k, 1)
			if !slices.Equal(got.InSet, want.InSet) || got.Iterations != want.Iterations {
				t.Fatalf("%v: MIS2 size %d, %d iterations; LubyMIS1 on the square size %d, %d iterations",
					k, len(got.InSet), got.Iterations, len(want.InSet), want.Iterations)
			}
		}
	})
}
