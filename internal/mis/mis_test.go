package mis

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mis2go/internal/graph"
	"mis2go/internal/hash"
	"mis2go/internal/par"
)

func randomGraph(n, m int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return graph.FromEdges(n, edges)
}

func pathGraph(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	return graph.FromEdges(n, edges)
}

func grid2D(nx, ny int) *graph.CSR {
	idx := func(x, y int) int32 { return int32(y*nx + x) }
	var edges []graph.Edge
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				edges = append(edges, graph.Edge{U: idx(x, y), V: idx(x+1, y)})
			}
			if y+1 < ny {
				edges = append(edges, graph.Edge{U: idx(x, y), V: idx(x, y+1)})
			}
		}
	}
	return graph.FromEdges(nx*ny, edges)
}

func setsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Figure 1 graph: the paper's worked example (tree 1-2-3-4 with leaves
// 5,6 on 4), 0-indexed here. ---

func fig1Graph() *graph.CSR {
	return graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 3, V: 5}})
}

func TestMIS2OnFig1Graph(t *testing.T) {
	g := fig1Graph()
	res := MIS2(g, Options{})
	if err := CheckMIS2(g, res.InSet); err != nil {
		t.Fatal(err)
	}
	// On this tree any valid MIS-2 has exactly 2 members (the graph has
	// diameter 4 and vertices 0 and one of {3,4,5} can both be chosen).
	if len(res.InSet) != 2 {
		t.Fatalf("MIS-2 size = %d, want 2 (set %v)", len(res.InSet), res.InSet)
	}
	if res.Iterations < 1 {
		t.Fatal("must report at least one iteration")
	}
}

func TestMIS2SmallShapes(t *testing.T) {
	shapes := map[string]*graph.CSR{
		"empty":         graph.FromEdges(0, nil),
		"single":        graph.FromEdges(1, nil),
		"isolated":      graph.FromEdges(5, nil),
		"edge":          graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}),
		"triangle":      graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}),
		"star":          graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}}),
		"path10":        pathGraph(10),
		"grid5x5":       grid2D(5, 5),
		"two-triangles": graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5}}),
	}
	for name, g := range shapes {
		res := MIS2(g, Options{})
		if err := CheckMIS2(g, res.InSet); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// A graph with no edges: every vertex is in the MIS-2.
	if got := len(MIS2(graph.FromEdges(5, nil), Options{}).InSet); got != 5 {
		t.Fatalf("isolated graph MIS-2 size = %d, want 5", got)
	}
	// Star: exactly one vertex possible.
	star := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}})
	if got := len(MIS2(star, Options{}).InSet); got != 1 {
		t.Fatalf("star MIS-2 size = %d, want 1", got)
	}
}

func TestMIS2ValidOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint64(seed)%200)
		g := randomGraph(n, 3*n, seed)
		for _, kind := range []hash.Kind{hash.XorStar, hash.Xor, hash.Fixed} {
			res := MIS2(g, Options{Hash: kind})
			if CheckMIS2(g, res.InSet) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAllVariantsValidAndSized(t *testing.T) {
	g := grid2D(30, 30)
	sizes := map[Variant]int{}
	for v := Variant(0); v < NumVariants; v++ {
		res := MIS2Variant(g, v, 0)
		if err := CheckMIS2(g, res.InSet); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		sizes[v] = len(res.InSet)
	}
	// All rungs after Baseline share the xorshift* priority sequence; the
	// worklist/packed/SIMD rungs implement the identical algorithm and
	// must agree exactly.
	a := MIS2Variant(g, VariantWorklists, 0)
	b := MIS2Variant(g, VariantPacked, 0)
	c := MIS2Variant(g, VariantSIMD, 0)
	if !setsEqual(a.InSet, b.InSet) || !setsEqual(b.InSet, c.InSet) {
		t.Fatal("worklist/packed/SIMD variants disagree on the result set")
	}
	if a.Iterations != b.Iterations || b.Iterations != c.Iterations {
		t.Fatal("worklist/packed/SIMD variants disagree on iterations")
	}
}

func TestDeterminismAcrossThreadCounts(t *testing.T) {
	g := randomGraph(500, 2500, 42)
	ref := MIS2(g, Options{Threads: 1})
	for _, threads := range []int{2, 3, 7, 16, 0} {
		got := MIS2(g, Options{Threads: threads})
		if !setsEqual(ref.InSet, got.InSet) {
			t.Fatalf("threads=%d: result differs from single-threaded run", threads)
		}
		if got.Iterations != ref.Iterations {
			t.Fatalf("threads=%d: iterations %d != %d", threads, got.Iterations, ref.Iterations)
		}
	}
}

func TestDeterminismAcrossRepeatedRuns(t *testing.T) {
	g := randomGraph(300, 1500, 7)
	ref := MIS2(g, Options{})
	for i := 0; i < 5; i++ {
		if !setsEqual(ref.InSet, MIS2(g, Options{}).InSet) {
			t.Fatal("repeated runs disagree")
		}
	}
}

func TestVariantDeterminismAcrossThreads(t *testing.T) {
	g := randomGraph(400, 1600, 11)
	for v := Variant(0); v < NumVariants; v++ {
		ref := MIS2Variant(g, v, 1)
		got := MIS2Variant(g, v, 8)
		if !setsEqual(ref.InSet, got.InSet) {
			t.Fatalf("%v: thread count changes result", v)
		}
	}
}

// --- Lemma IV.2: MIS-2(G) == MIS-1(G²) under the same priorities. ---

func TestLemmaIV2Equivalence(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint64(seed)%120)
		g := randomGraph(n, 2*n, seed)
		mis2 := mis2Packed(g, hash.XorStar, false, false, par.New(0))
		luby := LubyMIS1(g.Square(), hash.XorStar, 0)
		return setsEqual(mis2.InSet, luby.InSet) && mis2.Iterations == luby.Iterations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLubyValidMIS1(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint64(seed)%150)
		g := randomGraph(n, 3*n, seed)
		res := LubyMIS1(g, hash.XorStar, 0)
		return CheckMIS1(g, res.InSet) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Bell baseline ---

func TestBellValidMIS2(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint64(seed)%150)
		g := randomGraph(n, 3*n, seed)
		res := BellMISK(g, BellOptions{K: 2})
		return CheckMIS2(g, res.InSet) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBellK1IsValidMIS1(t *testing.T) {
	g := randomGraph(200, 800, 3)
	res := BellMISK(g, BellOptions{K: 1})
	if err := CheckMIS1(g, res.InSet); err != nil {
		t.Fatal(err)
	}
}

func TestBellK3Independence(t *testing.T) {
	g := pathGraph(20)
	res := BellMISK(g, BellOptions{K: 3})
	// Any two members of an MIS-3 on a path must be more than 3 apart.
	for i := 1; i < len(res.InSet); i++ {
		if res.InSet[i]-res.InSet[i-1] <= 3 {
			t.Fatalf("MIS-3 members %d and %d too close", res.InSet[i-1], res.InSet[i])
		}
	}
	if len(res.InSet) == 0 {
		t.Fatal("empty MIS-3")
	}
}

func TestBellRehashAgreesWithAlgorithm1Quality(t *testing.T) {
	// Not equality — different algorithms — but both must be valid and
	// of similar size on a regular mesh.
	g := grid2D(40, 40)
	a := BellMISK(g, BellOptions{K: 2, Rehash: true})
	b := MIS2(g, Options{})
	if err := CheckMIS2(g, a.InSet); err != nil {
		t.Fatal(err)
	}
	ra := float64(len(a.InSet)) / float64(len(b.InSet))
	if ra < 0.7 || ra > 1.4 {
		t.Fatalf("quality ratio %f out of range (|bell|=%d, |kk|=%d)", ra, len(a.InSet), len(b.InSet))
	}
}

// --- Packed tuple codec ---

func TestCodecRoundTrip(t *testing.T) {
	f := func(nRaw uint32, vRaw uint32, prio uint64) bool {
		n := int(nRaw%1_000_000) + 1
		v := int32(uint64(vRaw) % uint64(n))
		c := newCodec(n)
		packed := c.pack(prio>>c.idBits, v)
		if packed == tupleIn || packed == tupleOut {
			return false
		}
		return c.id(packed) == v && c.priority(packed) == prio>>c.idBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecOrderMatchesLexicographic(t *testing.T) {
	c := newCodec(1000)
	type tup struct {
		p uint64
		v int32
	}
	cases := []tup{{p: 0, v: 0}, {p: 0, v: 999}, {p: 1, v: 0}, {p: 5, v: 42}, {p: 5, v: 43}, {p: 1 << 40, v: 7}}
	for i := range cases {
		for j := range cases {
			a, b := cases[i], cases[j]
			wantLess := a.p < b.p || (a.p == b.p && a.v < b.v)
			gotLess := c.pack(a.p, a.v) < c.pack(b.p, b.v)
			if wantLess != gotLess {
				t.Fatalf("order mismatch for %v vs %v", a, b)
			}
		}
	}
}

func TestCodecNeverCollidesWithSentinels(t *testing.T) {
	// Worst case: priority all-ones, id = n-1 (paper eq. 1).
	for _, n := range []int{1, 2, 3, 4, 7, 8, 1023, 1024, 1025, 1 << 20} {
		c := newCodec(n)
		maxPrio := ^uint64(0) >> c.idBits
		packed := c.pack(maxPrio, int32(n-1))
		if packed == tupleOut {
			t.Fatalf("n=%d: max tuple collides with OUT", n)
		}
		if c.pack(0, 0) == tupleIn {
			t.Fatalf("n=%d: min tuple collides with IN", n)
		}
	}
}

// --- Verifier self-tests (failure injection) ---

func TestCheckMIS2CatchesViolations(t *testing.T) {
	g := pathGraph(6)
	// Adjacent members.
	if CheckMIS2(g, []int32{0, 1}) == nil {
		t.Fatal("adjacent members not caught")
	}
	// Distance-2 members.
	if CheckMIS2(g, []int32{0, 2}) == nil {
		t.Fatal("distance-2 members not caught")
	}
	// Non-maximal: {0} leaves vertex 5 at distance 5.
	if CheckMIS2(g, []int32{0}) == nil {
		t.Fatal("non-maximality not caught")
	}
	// Valid: {0, 3} covers everything on a 6-path.
	if err := CheckMIS2(g, []int32{0, 3}); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	// Out of range / duplicates.
	if CheckMIS2(g, []int32{-1}) == nil || CheckMIS2(g, []int32{9}) == nil {
		t.Fatal("out-of-range member not caught")
	}
	if CheckMIS2(g, []int32{0, 0, 3}) == nil {
		t.Fatal("duplicate member not caught")
	}
}

func TestCheckMIS1CatchesViolations(t *testing.T) {
	g := pathGraph(4)
	if CheckMIS1(g, []int32{0, 1}) == nil {
		t.Fatal("adjacent members not caught")
	}
	if CheckMIS1(g, []int32{0}) == nil {
		t.Fatal("non-maximality not caught")
	}
	if err := CheckMIS1(g, []int32{0, 2}); err != nil {
		t.Fatalf("valid MIS-1 rejected: %v", err)
	}
}

// --- Iteration count behaviour (Table I shape) ---

func TestXorStarNeedsFewerIterationsThanXor(t *testing.T) {
	// The paper's headline Table I observation: plain xorshift correlates
	// across iterations and needs more rounds than xorshift*. Check the
	// aggregate over several meshes rather than any single instance.
	totalStar, totalXor := 0, 0
	for _, g := range []*graph.CSR{grid2D(40, 40), grid2D(60, 25), pathGraph(800)} {
		totalStar += MIS2(g, Options{Hash: hash.XorStar}).Iterations
		totalXor += MIS2(g, Options{Hash: hash.Xor}).Iterations
	}
	if totalStar > totalXor {
		t.Fatalf("xorshift* total iterations %d > xorshift %d; expected fewer or equal", totalStar, totalXor)
	}
}

func TestIterationsLogarithmic(t *testing.T) {
	// O(log V) expected iterations: a 100x bigger mesh should add only a
	// few iterations (Table III shows +1-2 per 4-8x growth).
	small := MIS2(grid2D(20, 20), Options{}).Iterations
	big := MIS2(grid2D(200, 200), Options{}).Iterations
	if big > small+8 {
		t.Fatalf("iterations grew from %d to %d; expected logarithmic growth", small, big)
	}
}

func TestMIS2SizeProportionalOnGrids(t *testing.T) {
	// Table III: for a given problem type, |MIS-2| stays proportional
	// to |V| as the grid grows.
	small := len(MIS2(grid2D(30, 30), Options{}).InSet)
	big := len(MIS2(grid2D(60, 60), Options{}).InSet)
	ratio := float64(big) / float64(4*small)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("size scaling ratio %.2f far from 1 (small=%d big=%d)", ratio, small, big)
	}
}

func TestNoSIMDMatchesSIMD(t *testing.T) {
	// Dense-ish graph so the degree heuristic actually enables unrolling.
	g := randomGraph(300, 9000, 5)
	if g.AvgDegree() < MinSIMDDegree {
		t.Skip("graph not dense enough to engage SIMD path")
	}
	a := MIS2(g, Options{})
	b := mis2Packed(g, hash.XorStar, false, false, par.New(0))
	if !setsEqual(a.InSet, b.InSet) || a.Iterations != b.Iterations {
		t.Fatal("SIMD and scalar paths disagree")
	}
}

// CheckMIS1 verifies that set is a valid distance-1 maximal independent set.
func CheckMIS1(g *graph.CSR, set []int32) error {
	in := make([]bool, g.N)
	for _, v := range set {
		if v < 0 || int(v) >= g.N {
			return fmt.Errorf("mis: set member %d out of range", v)
		}
		in[v] = true
	}
	for _, v := range set {
		for _, w := range g.Neighbors(v) {
			if in[w] {
				return fmt.Errorf("mis: members %d and %d are adjacent", v, w)
			}
		}
	}
	for v := int32(0); int(v) < g.N; v++ {
		if in[v] {
			continue
		}
		free := true
		for _, w := range g.Neighbors(v) {
			if in[w] {
				free = false
				break
			}
		}
		if free {
			return fmt.Errorf("mis: vertex %d could be added (not maximal)", v)
		}
	}
	return nil
}
