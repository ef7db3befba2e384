// Benchmarks regenerating the paper's tables and figures (deliverable d).
// Each testing.B benchmark exercises the kernel behind one table or
// figure at a laptop-friendly scale; the cmd/experiments binary prints
// the full formatted tables (use -scale to approach paper sizes).
package mis2go

import (
	"fmt"
	"testing"

	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/gs"
	"mis2go/internal/hash"
	"mis2go/internal/krylov"
	"mis2go/internal/matrices"
	"mis2go/internal/mis"
	"mis2go/internal/par"
)

// benchScale keeps individual benchmark iterations in the millisecond
// range; raise via cmd/experiments -scale for paper-sized runs.
const benchScale = 0.01

// benchSuite picks three structurally distinct suite matrices: a regular
// 3D mesh, a 2D mesh, and an irregular FEM graph.
func benchSuite() map[string]*graph.CSR {
	out := map[string]*graph.CSR{}
	for _, name := range []string{"Laplace3D_100", "thermal2", "Hook_1498"} {
		spec, err := matrices.Get(name)
		if err != nil {
			panic(err)
		}
		out[name] = spec.Build(benchScale)
	}
	return out
}

// BenchmarkTable1PriorityIterations measures MIS-2 under the three
// priority schemes of Table I (the work per run tracks the iteration
// count each scheme needs).
func BenchmarkTable1PriorityIterations(b *testing.B) {
	g, _ := matrices.Get("Laplace3D_100")
	gr := g.Build(benchScale)
	for _, kind := range []hash.Kind{hash.Fixed, hash.Xor, hash.XorStar} {
		b.Run(kind.String(), func(b *testing.B) {
			iters := 0
			for i := 0; i < b.N; i++ {
				iters = mis.MIS2(gr, mis.Options{Hash: kind}).Iterations
			}
			b.ReportMetric(float64(iters), "mis2-iters")
		})
	}
}

// BenchmarkTable2MIS2 measures the production MIS-2 on representative
// suite matrices (Table II's timing columns).
func BenchmarkTable2MIS2(b *testing.B) {
	for name, g := range benchSuite() {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(8 * (g.N + g.NumEdges())))
			for i := 0; i < b.N; i++ {
				mis.MIS2(g, mis.Options{})
			}
		})
	}
}

// BenchmarkFig2Ablation measures every rung of the optimization ladder
// (Figure 2): Baseline, +Random priority, +Worklists, +Packed, +SIMD.
func BenchmarkFig2Ablation(b *testing.B) {
	g, _ := matrices.Get("Hook_1498")
	gr := g.Build(benchScale)
	for v := mis.Variant(0); v < mis.NumVariants; v++ {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mis.MIS2Variant(gr, v, 0)
			}
		})
	}
}

// BenchmarkTable3Scaling measures MIS-2 across growing structured grids
// (Table III's |V| sweep).
func BenchmarkTable3Scaling(b *testing.B) {
	for _, side := range []int{16, 24, 32, 48} {
		g := gen.Laplace3D(side, side, side)
		b.Run(fmt.Sprintf("Laplace-%d", side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mis.MIS2(g, mis.Options{})
			}
		})
	}
	for _, side := range []int{8, 12, 16} {
		g := gen.Elasticity3D(side, side, side, 3)
		b.Run(fmt.Sprintf("Elasticity-%d", side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mis.MIS2(g, mis.Options{})
			}
		})
	}
}

// BenchmarkFig4Scaling measures strong scaling over worker counts
// (Figures 4/5; Figure 3's efficiency profile derives from the same
// sweep).
func BenchmarkFig4Scaling(b *testing.B) {
	g, _ := matrices.Get("Laplace3D_100")
	gr := g.Build(benchScale * 4)
	for _, threads := range []int{1, 2, 4, 8, 16} {
		threads := threads
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mis.MIS2(gr, mis.Options{Threads: threads})
			}
		})
	}
}

// BenchmarkFig6VsCUSP compares Algorithm 1 against the CUSP-style Bell
// baseline (Figure 6).
func BenchmarkFig6VsCUSP(b *testing.B) {
	for name, g := range benchSuite() {
		b.Run("CUSP/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mis.BellMISK(g, mis.BellOptions{K: 2, Hash: hash.Fixed})
			}
		})
		b.Run("KK/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mis.MIS2(g, mis.Options{})
			}
		})
	}
}

// BenchmarkFig7Coarsening compares MIS-2 + Algorithm 2 against the
// ViennaCL-style pipeline (Figure 7).
func BenchmarkFig7Coarsening(b *testing.B) {
	g, _ := matrices.Get("thermal2")
	gr := g.Build(benchScale)
	b.Run("ViennaCL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			roots := mis.BellMISK(gr, mis.BellOptions{K: 2, Hash: hash.Fixed, Salt: 0x51EC7A11}).InSet
			coarsen.BasicFromRoots(gr, roots, 0)
		}
	})
	b.Run("KK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coarsen.Basic(gr, coarsen.Options{})
		}
	})
}

// BenchmarkTable5AMG measures SA-AMG setup+solve for each aggregation
// scheme (Table V).
func BenchmarkTable5AMG(b *testing.B) {
	side := 20
	g := gen.Laplace3D(side, side, side)
	a := gen.Laplacian(g, 1e-8)
	n := a.Rows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}
	rt := par.New(0)
	schemes := map[string]AMGOptions{
		"MIS2Agg":   {},
		"MIS2Basic": {Aggregate: func(gr *Graph) Aggregation { return coarsen.Basic(gr, coarsen.Options{}) }},
		"SerialAgg": {Aggregate: coarsen.SerialGreedy},
		"NBD2C":     {Aggregate: func(gr *Graph) Aggregation { return coarsen.D2C(gr, 0, true) }},
	}
	for name, opt := range schemes {
		opt := opt
		b.Run(name, func(b *testing.B) {
			var lastIters int
			for i := 0; i < b.N; i++ {
				h, err := NewAMG(a, opt)
				if err != nil {
					b.Fatal(err)
				}
				x := make([]float64, n)
				st, err := krylov.CGCtx(nil, rt, a, rhs, x, krylov.Options{Tol: 1e-12, MaxIter: 500, M: h})
				if err != nil {
					b.Fatal(err)
				}
				lastIters = st.Iterations
			}
			b.ReportMetric(float64(lastIters), "cg-iters")
		})
	}
}

// BenchmarkTable6ClusterGS measures point vs cluster multicolor SGS setup
// and preconditioned GMRES solve (Table VI).
func BenchmarkTable6ClusterGS(b *testing.B) {
	spec, _ := matrices.Get("bodyy5")
	a := spec.Matrix(0.2)
	n := a.Rows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	rt := par.New(0)
	b.Run("PointSetup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gs.NewPoint(a, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ClusterSetup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg := coarsen.MIS2Aggregation(a.Graph(), coarsen.Options{})
			if _, err := gs.NewCluster(a, agg, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	point, err := gs.NewPoint(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	agg := coarsen.MIS2Aggregation(a.Graph(), coarsen.Options{})
	cluster, err := gs.NewCluster(a, agg, 0)
	if err != nil {
		b.Fatal(err)
	}
	for name, m := range map[string]krylov.Preconditioner{"PointApply": point, "ClusterApply": cluster} {
		m := m
		b.Run(name, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				x := make([]float64, n)
				st, err := krylov.GMRESCtx(nil, rt, a, rhs, x, 50, krylov.Options{Tol: 1e-8, MaxIter: 800, M: m})
				if err != nil {
					b.Fatal(err)
				}
				iters = st.Iterations
			}
			b.ReportMetric(float64(iters), "gmres-iters")
		})
	}
}

// --- Ablation benches beyond the paper (DESIGN.md) ---

// BenchmarkAblationHash isolates the hash function cost.
func BenchmarkAblationHash(b *testing.B) {
	b.Run("xorshift", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc ^= hash.Xorshift64(uint64(i) + 1)
		}
		_ = acc
	})
	b.Run("xorshift-star", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc ^= hash.Xorshift64Star(uint64(i) + 1)
		}
		_ = acc
	})
}

// BenchmarkScanImpl compares the parallel prefix sum against a serial
// scan (the worklist compaction primitive of §V-B).
func BenchmarkScanImpl(b *testing.B) {
	n := 1 << 20
	in := make([]int, n)
	for i := range in {
		in[i] = i % 3
	}
	out := make([]int, n+1)
	for _, threads := range []int{1, 8} {
		rt := par.New(threads)
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				par.ScanExclusive(rt, in, out)
			}
		})
	}
}

// BenchmarkSpGEMMSquare compares direct MIS-2 against the Lemma IV.2
// route (explicit G² then MIS-1), quantifying why Bell's SpGEMM-free
// formulation — and ours — avoids squaring the graph.
func BenchmarkSpGEMMSquare(b *testing.B) {
	g := gen.Laplace3D(20, 20, 20)
	b.Run("direct-mis2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mis.MIS2(g, mis.Options{})
		}
	})
	b.Run("square-then-mis1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sq := g.Square()
			mis.LubyMIS1(sq, hash.XorStar, 0)
		}
	})
}

// BenchmarkAblationWorklist and BenchmarkAblationPacked isolate
// individual rungs of the Figure 2 ladder on a denser graph where the
// differences are visible.
func BenchmarkAblationWorklist(b *testing.B) {
	g := gen.RandomFEM(16, 16, 16, 24, 5)
	b.Run("without", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mis.MIS2Variant(g, mis.VariantRandomized, 0)
		}
	})
	b.Run("with", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mis.MIS2Variant(g, mis.VariantWorklists, 0)
		}
	})
}

func BenchmarkAblationPacked(b *testing.B) {
	g := gen.RandomFEM(16, 16, 16, 24, 5)
	b.Run("unpacked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mis.MIS2Variant(g, mis.VariantWorklists, 0)
		}
	})
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mis.MIS2Variant(g, mis.VariantPacked, 0)
		}
	})
}

func BenchmarkAblationSIMD(b *testing.B) {
	g := gen.Elasticity3D(10, 10, 10, 3) // avg degree ~70: SIMD engages
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mis.MIS2Variant(g, mis.VariantPacked, 0)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mis.MIS2(g, mis.Options{})
		}
	})
}
