// Substrate and extension benchmarks: the kernels underneath the paper's
// experiments (SpMV, SpGEMM, coloring, the aggregation schemes) and the
// extension features (partitioning, graph squaring, induced subgraphs).
package mis2go

import (
	"fmt"
	"testing"

	"mis2go/internal/coarsen"
	"mis2go/internal/color"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/mis"
	"mis2go/internal/par"
	"mis2go/internal/partition"
	"mis2go/internal/sparse"
)

func BenchmarkSpMV(b *testing.B) {
	g := gen.Laplace3D(40, 40, 40)
	a := gen.Laplacian(g, 0.1)
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	for _, th := range []int{1, 8} {
		rt := par.New(th)
		b.Run(fmt.Sprintf("threads-%d", th), func(b *testing.B) {
			b.SetBytes(int64(12 * a.NNZ()))
			for i := 0; i < b.N; i++ {
				a.SpMV(rt, x, y)
			}
		})
	}
}

// BenchmarkSpGEMMGalerkin measures the numeric RAP triple product a
// Refresh runs: RAPPlan.Replay alone, on a plan made once before the
// timer starts.
func BenchmarkSpGEMMGalerkin(b *testing.B) {
	g := gen.Laplace3D(20, 20, 20)
	a := gen.Laplacian(g, 0.1)
	agg := coarsen.MIS2Aggregation(g, coarsen.Options{})
	p := coarsen.Prolongator(agg)
	r := p.Transpose()
	rt := par.New(0)
	pl, err := sparse.PlanRAP(rt, r, a, p)
	if err != nil {
		b.Fatal(err)
	}
	out := pl.NewMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.Replay(rt, r, a, p, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColoring(b *testing.B) {
	g := gen.Laplace3D(24, 24, 24)
	b.Run("greedy-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			color.Greedy(g)
		}
	})
	b.Run("jones-plassmann", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			color.Parallel(g, 0)
		}
	})
	b.Run("d2-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			color.GreedyDistance2(g)
		}
	})
	b.Run("d2-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			color.ParallelDistance2(g, 0)
		}
	})
}

func BenchmarkAggregationSchemes(b *testing.B) {
	g := gen.Laplace3D(24, 24, 24)
	schemes := []struct {
		name string
		run  func() coarsen.Aggregation
	}{
		{name: "serial-greedy", run: func() coarsen.Aggregation { return coarsen.SerialGreedy(g) }},
		{name: "serial-d2c", run: func() coarsen.Aggregation { return coarsen.D2C(g, 0, false) }},
		{name: "nb-d2c", run: func() coarsen.Aggregation { return coarsen.D2C(g, 0, true) }},
		{name: "mis2-basic", run: func() coarsen.Aggregation { return coarsen.Basic(g, coarsen.Options{}) }},
		{name: "mis2-agg", run: func() coarsen.Aggregation { return coarsen.MIS2Aggregation(g, coarsen.Options{}) }},
	}
	for _, s := range schemes {
		s := s
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.run()
			}
		})
	}
}

func BenchmarkPartitionCoarsening(b *testing.B) {
	g := gen.Laplace3D(16, 16, 16)
	for _, pol := range []partition.Policy{partition.MIS2Policy, partition.HEMPolicy} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				res, err := partition.Partition(g, partition.Options{Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.EdgeCut
			}
			b.ReportMetric(float64(cut), "edge-cut")
		})
	}
}

func BenchmarkGraphSquare(b *testing.B) {
	for _, side := range []int{10, 16} {
		g := gen.Laplace3D(side, side, side)
		b.Run(fmt.Sprintf("laplace-%d", side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Square()
			}
		})
	}
}

func BenchmarkInducedSubgraph(b *testing.B) {
	g := gen.Laplace3D(24, 24, 24)
	keep := make([]bool, g.N)
	for i := range keep {
		keep[i] = i%3 != 0
	}
	rt := par.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.InducedSubgraph(rt, keep)
	}
}

// coarseningLevels returns each level of the multilevel Algorithm-3
// coarsening of a 64^3 mesh down to 1000 vertices, as in amgbench's
// mis2-coarsen workload, with the aggregation that collapses it: level 0
// is the mesh itself, the later levels the denser coarse graphs.
func coarseningLevels() ([]*graph.CSR, []coarsen.Aggregation) {
	var graphs []*graph.CSR
	var aggs []coarsen.Aggregation
	g := gen.Laplace3D(64, 64, 64)
	for g.N > 1000 {
		agg := coarsen.MIS2Aggregation(g, coarsen.Options{})
		if agg.NumAggregates >= g.N {
			break
		}
		graphs = append(graphs, g)
		aggs = append(aggs, agg)
		g = coarsen.CoarseGraph(g, agg)
	}
	return graphs, aggs
}

func BenchmarkCoarseGraph(b *testing.B) {
	graphs, aggs := coarseningLevels()
	for level, g := range graphs {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				coarsen.CoarseGraph(g, aggs[level])
			}
		})
	}
}

// BenchmarkGraphWith extracts the symmetrized, diagonal-free graph of
// the level-0 operators of amgbench's mis2-coarsen (Laplace3D 64³) and
// amg-cold (Elasticity3D 14³×3) workloads.
func BenchmarkGraphWith(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    func() *graph.CSR
	}{
		{"laplace3d-64", func() *graph.CSR { return gen.Laplace3D(64, 64, 64) }},
		{"elasticity3d-14x3", func() *graph.CSR { return gen.Elasticity3D(14, 14, 14, 3) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			a := gen.Laplacian(tc.g(), 1e-4)
			rt := par.Default()
			b.ReportAllocs()
			for b.Loop() {
				a.GraphWith(rt)
			}
		})
	}
}

// BenchmarkMIS2Levels runs the phase-1 MIS-2 of MIS2Aggregation (the
// whole level graph, default options) on each level of the same
// coarsening.
func BenchmarkMIS2Levels(b *testing.B) {
	graphs, _ := coarseningLevels()
	for level, g := range graphs {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mis.MIS2(g, mis.Options{})
			}
		})
	}
}

func BenchmarkCSRConstruction(b *testing.B) {
	// FromEdges on a mesh-sized edge list (graph-build cost in every
	// experiment's setup).
	side := 30
	var edges []graph.Edge
	idx := func(x, y, z int) int32 { return int32((z*side+y)*side + x) }
	for z := 0; z < side; z++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				if x+1 < side {
					edges = append(edges, graph.Edge{U: idx(x, y, z), V: idx(x+1, y, z)})
				}
				if y+1 < side {
					edges = append(edges, graph.Edge{U: idx(x, y, z), V: idx(x, y+1, z)})
				}
				if z+1 < side {
					edges = append(edges, graph.Edge{U: idx(x, y, z), V: idx(x, y, z+1)})
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.FromEdges(side*side*side, edges)
	}
}
