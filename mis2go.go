// Package mis2go is a parallel, deterministic implementation of the
// distance-2 maximal independent set (MIS-2) algorithm and the MIS-2-based
// graph coarsening schemes of Kelley & Rajamanickam, "Parallel, Portable
// Algorithms for Distance-2 Maximal Independent Set and Graph Coarsening"
// (IPDPS 2022), together with the solver stack the paper evaluates them
// in: smoothed-aggregation algebraic multigrid and point/cluster
// multicolor Gauss-Seidel preconditioning.
//
// The package is a facade over the internal implementation packages; it
// re-exports the types and entry points a downstream user needs:
//
//	g := mis2go.Laplace3D(64, 64, 64)
//	res := mis2go.MIS2(g, mis2go.MISOptions{})
//	agg := mis2go.Aggregate(g, 0)           // Algorithm 3
//	a := mis2go.GraphLaplacian(g, 0.05)
//	h, _ := mis2go.NewAMG(a, mis2go.AMGOptions{})
//	stats, _ := mis2go.SolveCG(a, b, x, mis2go.SolveOptions{Tol: 1e-10, MaxIter: 500, M: h}, 0)
//
// All algorithms are deterministic: results are identical for every
// worker count and across runs.
package mis2go

import (
	"io"

	"mis2go/internal/amg"
	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/gs"
	"mis2go/internal/hash"
	"mis2go/internal/krylov"
	"mis2go/internal/mis"
	"mis2go/internal/mmio"
	"mis2go/internal/order"
	"mis2go/internal/par"
	"mis2go/internal/partition"
	"mis2go/internal/serve"
	"mis2go/internal/sparse"
)

// Graph is an undirected graph in CSR form. See NewGraph and the
// generator functions.
type Graph = graph.CSR

// Edge is an undirected edge used by NewGraph.
type Edge = graph.Edge

// NewGraph builds a graph on n vertices from an undirected edge list;
// duplicate edges and self-loops are dropped.
func NewGraph(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Laplace3D generates the graph of a 3D grid with a 7-point stencil
// (the Galeri Laplace3D problem of the paper's experiments).
func Laplace3D(nx, ny, nz int) *Graph { return gen.Laplace3D(nx, ny, nz) }

// Laplace2D generates the graph of a 2D grid with a 5-point stencil.
func Laplace2D(nx, ny int) *Graph { return gen.Laplace2D(nx, ny) }

// Elasticity3D generates a 27-point stencil grid with dof unknowns per
// point (the Galeri Elasticity3D problem; the paper uses dof=3).
func Elasticity3D(nx, ny, nz, dof int) *Graph { return gen.Elasticity3D(nx, ny, nz, dof) }

// RandomFEM generates a deterministic irregular FEM-like mesh with the
// given average degree.
func RandomFEM(nx, ny, nz int, avgDeg float64, seed uint64) *Graph {
	return gen.RandomFEM(nx, ny, nz, avgDeg, seed)
}

// HashKind selects the pseudo-random priority scheme of the MIS-2
// algorithm (paper Table I).
type HashKind = hash.Kind

// Priority schemes: HashXorStar is the production default.
const (
	HashXorStar = hash.XorStar
	HashXor     = hash.Xor
	HashFixed   = hash.Fixed
)

// MISOptions configures MIS2; the zero value is the production
// configuration (xorshift* priorities, all optimizations, all cores).
type MISOptions = mis.Options

// MISResult reports the independent set and the iteration count.
type MISResult = mis.Result

// MIS2 computes a distance-2 maximal independent set of g using the
// paper's Algorithm 1 with all four optimizations. Deterministic.
func MIS2(g *Graph, opt MISOptions) MISResult { return mis.MIS2(g, opt) }

// VerifyMIS2 checks distance-2 independence and maximality of set in g.
func VerifyMIS2(g *Graph, set []int32) error { return mis.CheckMIS2(g, set) }

// Aggregation assigns every vertex to an aggregate (cluster).
type Aggregation = coarsen.Aggregation

// CoarsenBasic runs Algorithm 2 (Bell et al.'s simple MIS-2 coarsening).
func CoarsenBasic(g *Graph, threads int) Aggregation {
	return coarsen.Basic(g, coarsen.Options{Threads: threads})
}

// Aggregate runs Algorithm 3, the paper's two-phase MIS-2 aggregation
// with coupling-based cleanup (the scheme shipped in Kokkos Kernels).
func Aggregate(g *Graph, threads int) Aggregation {
	return coarsen.MIS2Aggregation(g, coarsen.Options{Threads: threads})
}

// CoarseGraph collapses g according to an aggregation: one coarse vertex
// per aggregate.
func CoarseGraph(g *Graph, agg Aggregation) *Graph { return coarsen.CoarseGraph(g, agg) }

// Matrix is a CSR sparse matrix.
type Matrix = sparse.Matrix

// Operator is the format-independent view of a sparse operator: the
// product kernels the solver stack needs (SpMV, its fused variants and
// the Jacobi sweep), dispatched over the storage format. *Matrix (CSR)
// and the SELL-C-sigma conversion from NewOperator both implement it,
// with bit-identical results: switching formats never changes any
// answer, only speed.
type Operator = sparse.Operator

// OperatorFormat names an operator storage layout, as each AMG level's
// Format method reports it.
type OperatorFormat = sparse.Format

// Operator formats: FormatSELL is a SELL-C-sigma conversion, FormatCSR
// the CSR matrix itself.
const (
	FormatCSR  = sparse.FormatCSR
	FormatSELL = sparse.FormatSELL
)

// NewOperator returns a's kernels in the format AMG levels use: large
// regular matrices (fine mesh Laplacians) are converted to SELL-C-sigma,
// small or irregular ones stay on CSR. Both formats give bit-identical
// results, so the choice only changes speed.
func NewOperator(a *Matrix) Operator { return sparse.NewOperator(a) }

// RCMOrder computes the reverse Cuthill-McKee ordering of a's graph: a
// bandwidth-reducing permutation (perm[new] = old) that clusters each
// row's columns near the diagonal, keeping the kernels' gathers from x
// cache-resident. Use PermuteMatrix/PermuteVector to move a system into
// the ordering and InversePermuteVector to move solutions back.
func RCMOrder(a *Matrix) []int32 { return order.RCM(a.Graph()) }

// PermuteMatrix applies the symmetric permutation P·A·Pᵀ (perm[new] =
// old), producing a standard sorted-row CSR matrix.
func PermuteMatrix(a *Matrix, perm []int32) (*Matrix, error) { return order.PermuteMatrix(a, perm) }

// PermuteVector gathers src into the reordered numbering:
// dst[new] = src[perm[new]]. Malformed permutations (length mismatch,
// duplicate or out-of-range entries) return a descriptive error with
// dst untouched.
func PermuteVector(dst, src []float64, perm []int32) error {
	return order.PermuteVector(dst, src, perm)
}

// InversePermuteVector scatters src back to the original numbering —
// the exact (bitwise) inverse of PermuteVector, with the same
// permutation validation.
func InversePermuteVector(dst, src []float64, perm []int32) error {
	return order.InversePermuteVector(dst, src, perm)
}

// Bandwidth returns max |i-j| over stored entries of a — the quantity
// RCMOrder reduces.
func Bandwidth(a *Matrix) int { return order.Bandwidth(a) }

// GraphLaplacian builds the SPD graph Laplacian of g with a diagonal
// shift (shift > 0 makes it nonsingular).
func GraphLaplacian(g *Graph, shift float64) *Matrix { return gen.Laplacian(g, shift) }

// DirichletLaplacian builds the SPD constant-diagonal Laplacian
// A = diag*I - Adj(g): the Dirichlet-boundary stencil matrix of the
// paper's Galeri test problems (pass diag = interior stencil degree,
// e.g. 6 for Laplace3D).
func DirichletLaplacian(g *Graph, diag float64) *Matrix { return gen.DirichletLaplacian(g, diag) }

// WeightedGraphLaplacian is GraphLaplacian with deterministic
// pseudo-random edge weights.
func WeightedGraphLaplacian(g *Graph, shift float64, seed uint64) *Matrix {
	return gen.WeightedLaplacian(g, shift, seed)
}

// AMGOptions configures NewAMG; the zero value builds SA-AMG with
// Algorithm 3 aggregation, smoothed prolongators, and 2+2 damped-Jacobi
// sweeps, as in the paper's Table V setup.
type AMGOptions = amg.Options

// AMG is a smoothed-aggregation multigrid hierarchy; it implements
// Preconditioner via one V-cycle per application.
type AMG = amg.Hierarchy

// AMGSmoother selects the level relaxation of the V-cycle.
type AMGSmoother = amg.Smoother

// Level smoothers: damped Jacobi (the paper's Table V setup, the
// default) and point multicolor symmetric Gauss-Seidel. NewAMG rejects
// any other value.
const (
	SmootherJacobi   = amg.SmootherJacobi
	SmootherPointSGS = amg.SmootherPointSGS
)

// NewAMG builds an SA-AMG hierarchy for the SPD matrix a.
func NewAMG(a *Matrix, opt AMGOptions) (*AMG, error) { return amg.Build(a, opt) }

// NewAMGSymbolic runs only the pattern-dependent (symbolic) half of AMG
// setup: graph extraction, MIS-2 aggregation, the tentative prolongator,
// and the cached SpGEMM plans for prolongator smoothing and the Galerkin
// product. Finish with h.BuildNumeric(a) before solving, and re-setup
// for a matrix with the same sparsity pattern and new values — a time
// step, Newton iteration, or parameter sweep — with h.Refresh(a2),
// which replays only the cheap numeric phase and errors cleanly if the
// pattern differs. A refreshed hierarchy is bitwise identical to a
// fresh NewAMG of the same matrix.
func NewAMGSymbolic(a *Matrix, opt AMGOptions) (*AMG, error) { return amg.BuildSymbolic(a, opt) }

// Preconditioner maps a residual to an approximate error (z = M^{-1} r).
type Preconditioner = krylov.Preconditioner

// SolveStats reports iterations and the final relative residual.
type SolveStats = krylov.Stats

// SolveOptions configures SolveCG and SolveGMRES:
// tolerance, iteration budget, preconditioner (nil means none), a
// caller-held SolverWorkspace (nil allocates a temporary one; reusing
// one makes repeated solves allocation-free) and Health, which turns on
// the per-iteration health guard (false means none). The guard's
// thresholds are fixed: divergence at 1e4 times the best residual for 5
// consecutive iterations, stagnation after 100 iterations without 0.1%
// relative progress. It classifies divergence, stagnation and
// non-finite residuals into the ErrSolve* sentinels; it reads only
// residual norms the convergence test already computes, so guarded and
// unguarded successful solves are bitwise identical.
type SolveOptions = krylov.Options

// SolveCG runs preconditioned conjugate gradient on the SPD system
// A x = b. threads 0 means all cores. a is any operator (a *Matrix, or
// a SELL conversion from NewOperator); every format yields
// bit-identical solves, and the result is the same at every thread
// count. Several right-hand sides against one matrix are solved one
// call at a time.
func SolveCG(a Operator, b, x []float64, opt SolveOptions, threads int) (SolveStats, error) {
	return krylov.CGCtx(nil, par.New(threads), a, b, x, opt)
}

// SolveGMRES runs preconditioned restarted GMRES(restart) on A x = b;
// restart <= 0 selects 50.
func SolveGMRES(a Operator, b, x []float64, restart int, opt SolveOptions, threads int) (SolveStats, error) {
	return krylov.GMRESCtx(nil, par.New(threads), a, b, x, restart, opt)
}

// SolverWorkspace holds the scratch vectors of the Krylov solvers so
// that repeated solves allocate nothing. The zero value is ready for
// use; see NewSolverWorkspace to pre-size. Not safe for concurrent use.
type SolverWorkspace = krylov.Workspace

// NewSolverWorkspace returns a workspace pre-sized for n unknowns.
func NewSolverWorkspace(n int) *SolverWorkspace { return krylov.NewWorkspace(n) }

// Classified solver failures. All satisfy errors.Is against the
// sentinel; ErrSolveQuarantined additionally unwraps from the
// *ServeQuarantinedError a SolveService returns while a poison pattern
// is quarantined.
var (
	// ErrSolveNotConverged: the iteration budget ran out while the
	// residual was still finite and moving.
	ErrSolveNotConverged = krylov.ErrNotConverged
	// ErrSolveDiverged: the residual blew up past the guard's factor of
	// the best residual seen, for the guard's window of iterations.
	ErrSolveDiverged = krylov.ErrDiverged
	// ErrSolveStagnated: the residual made no relative progress for the
	// guard's stagnation window.
	ErrSolveStagnated = krylov.ErrStagnated
	// ErrSolveNonFinite: a residual norm became NaN or Inf.
	ErrSolveNonFinite = krylov.ErrNonFinite
	// ErrSolveBreakdown: CG met a non-positive p^T A p (matrix not SPD).
	ErrSolveBreakdown = krylov.ErrBreakdown
	// ErrSolveQuarantined: the service's circuit breaker is failing this
	// matrix pattern fast after repeated numerical failures.
	ErrSolveQuarantined = serve.ErrQuarantined
)

// ServeQuarantinedError is the concrete quarantine rejection returned
// by a SolveService; RetryAfter reports the remaining cooldown.
type ServeQuarantinedError = serve.QuarantinedError

// SolveService is a concurrent solve service over the AMG+CG stack: an
// LRU cache of hierarchies keyed by sparsity-pattern fingerprint (first
// request per pattern builds, same-pattern/new-values requests pay only
// the numeric Refresh, identical-values requests pay nothing),
// per-pattern single-flight locking under which each request solves its
// own right-hand sides with one CG call per column, and bounded
// in-flight admission. Safe for concurrent use by any number of
// goroutines; served results are bitwise identical to sequential
// single-caller solves. See NewSolveService.
type SolveService = serve.Service

// ServeConfig configures NewSolveService; the zero value serves with
// defaults (1e-8 tolerance, 8 cached hierarchies, at most 8
// right-hand sides per request, 4×GOMAXPROCS in-flight requests).
type ServeConfig = serve.Config

// ServeRequestStats reports what one served request paid (cache
// outcome, escalation rungs) and its per-column solver stats.
type ServeRequestStats = serve.RequestStats

// ServeMetrics is a snapshot of a SolveService's counters.
type ServeMetrics = serve.Metrics

// ServeOutcome labels what a request paid at the hierarchy cache.
type ServeOutcome = serve.Outcome

// Cache outcomes of a served request.
const (
	ServeOutcomeBuild     = serve.OutcomeBuild
	ServeOutcomeRefresh   = serve.OutcomeRefresh
	ServeOutcomeReuse     = serve.OutcomeReuse
	ServeOutcomeCollision = serve.OutcomeCollision
)

// NewSolveService returns a concurrent solve service. Submit requests
// with Solve (one right-hand side) or SolveBatch (several against one
// matrix); read counters with Metrics.
func NewSolveService(cfg ServeConfig) *SolveService { return serve.New(cfg) }

// GaussSeidel is a multicolor Gauss-Seidel operator (point or cluster).
type GaussSeidel = gs.Multicolor

// NewPointSGS sets up point multicolor symmetric Gauss-Seidel for a.
func NewPointSGS(a *Matrix, threads int) (*GaussSeidel, error) { return gs.NewPoint(a, threads) }

// NewClusterSGS sets up cluster multicolor symmetric Gauss-Seidel
// (Algorithm 4) for a, using Algorithm 3 to form the clusters.
func NewClusterSGS(a *Matrix, threads int) (*GaussSeidel, error) {
	agg := coarsen.MIS2Aggregation(a.Graph(), coarsen.Options{Threads: threads})
	return gs.NewCluster(a, agg, threads)
}

// NewClusterSGSFrom sets up cluster multicolor Gauss-Seidel from a
// caller-provided aggregation.
func NewClusterSGSFrom(a *Matrix, agg Aggregation, threads int) (*GaussSeidel, error) {
	return gs.NewCluster(a, agg, threads)
}

// MISK computes a distance-k maximal independent set: Algorithm 1 for
// k == 2 and the Bell/Dalton/Olson general-k propagation otherwise.
// Deterministic for all k.
func MISK(g *Graph, k, threads int) MISResult {
	if k == 2 {
		return mis.MIS2(g, mis.Options{Threads: threads})
	}
	return mis.BellMISK(g, mis.BellOptions{K: k, Rehash: true, Threads: threads})
}

// VerifyMISK checks distance-k independence and maximality of set in g
// (test-scale graphs; O(|set|·(V+E)) time).
func VerifyMISK(g *Graph, set []int32, k int) error { return mis.CheckMISK(g, set, k) }

// JacobiPreconditioner returns the diagonal preconditioner for a.
func JacobiPreconditioner(a *Matrix) (Preconditioner, error) { return krylov.Jacobi(a) }

// PartitionOptions configures Bisect.
type PartitionOptions = partition.Options

// PartitionResult reports a graph bisection.
type PartitionResult = partition.Result

// Partitioning policy re-exports: coarsening scheme of the multilevel
// bisection (the paper's future-work application).
const (
	PartitionMIS2 = partition.MIS2Policy
	PartitionHEM  = partition.HEMPolicy
)

// Bisect splits g into two balanced parts with multilevel partitioning,
// coarsening by MIS-2 aggregation (or HEM via PartitionOptions.Policy).
func Bisect(g *Graph, opt PartitionOptions) (PartitionResult, error) {
	return partition.Partition(g, opt)
}

// KWayResult reports a k-way partition from PartitionKWay.
type KWayResult = partition.KWayResult

// PartitionKWay splits g into k parts (k a power of two) by recursive
// multilevel bisection.
func PartitionKWay(g *Graph, k int, opt PartitionOptions) (KWayResult, error) {
	return partition.KWay(g, k, opt)
}

// AggregationQuality summarizes an aggregation: coarsening rate, size
// spread, and the fraction of edges crossing aggregates.
type AggregationQuality = coarsen.QualityStats

// QualityOf computes AggregationQuality for an aggregation of g.
func QualityOf(g *Graph, agg Aggregation) AggregationQuality { return coarsen.Quality(g, agg) }

// ReadMatrixMarket parses a Matrix Market stream into a sparse matrix
// (e.g. a SuiteSparse .mtx file for the paper's real test matrices).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return mmio.ReadMatrix(r) }

// ReadGraphMatrixMarket parses a Matrix Market stream as an undirected
// graph (pattern, symmetrized, diagonal dropped).
func ReadGraphMatrixMarket(r io.Reader) (*Graph, error) { return mmio.ReadGraph(r) }

// WriteMatrixMarket writes a matrix in coordinate real general format.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return mmio.WriteMatrix(w, m) }
