// Package schwarz implements a two-level overlapping additive Schwarz
// preconditioner, the domain-decomposition use of graph coarsening the
// paper's introduction cites (Heinlein et al., FROSch). It composes this
// repository's pieces end to end: the multilevel partitioner (itself
// built on MIS-2 coarsening) splits the matrix graph into subdomains,
// each subdomain is extended by overlap layers and solved locally —
// dense LU below a size cutoff, a per-subdomain AMG hierarchy above it —
// and the optional coarse level is the Galerkin operator of an MIS-2
// aggregation, so both levels of the preconditioner are driven by the
// paper's kernel.
//
// Internally the preconditioner is built from a pattern-only layout
// (partition + overlapped row sets), one local solver per subdomain,
// and the coarse level.
//
// Setup follows the symbolic/numeric split of the amg package:
// Refresh(a) replays numeric-only work (local value gathers and
// refactorizations, RAP plan replay on the coarse level) for an operator
// with the pattern New saw, with the same two-zone validity semantics as
// amg.Hierarchy — pre-mutation rejections leave the previous state
// usable, mid-replay failures invalidate the preconditioner (Valid
// reports false and Precondition panics) until a Refresh succeeds.
//
// Determinism: subdomain applies fan across the par worker pool with one
// block per subdomain, each writing its own scratch, and all
// global accumulation is serialized in subdomain order — results are
// bitwise identical for every worker count, for a fixed partition.
//
//amg:deterministic
package schwarz

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"mis2go/internal/amg"
	"mis2go/internal/coarsen"
	"mis2go/internal/graph"
	"mis2go/internal/hash"
	"mis2go/internal/par"
	"mis2go/internal/partition"
	"mis2go/internal/sparse"
)

// ErrCanceled is wrapped by ApplyCtx, NewCtx, and RefreshCtx when their
// context is canceled. The returned error also wraps the context's
// cause, so callers can use errors.Is against either sentinel. A
// canceled apply never writes a partial result: the output vector is
// only touched in the final accumulation phase, after the last
// cancellation check.
var ErrCanceled = errors.New("schwarz: canceled")

// DefaultLocalAMGThreshold is the subdomain size above which the local
// solver is a per-subdomain AMG hierarchy instead of a dense LU
// factorization (Options.LocalAMGThreshold zero value). Dense local
// solves cost O(rows³) to factorize and O(rows²) to apply, which is the
// right trade only while subdomains stay small.
const DefaultLocalAMGThreshold = 1024

// Options configures New. Zero values select the noted defaults.
type Options struct {
	// Subdomains is the number of subdomains, rounded up to a power of
	// two for the recursive-bisection partitioner. Default: n/256, at
	// least 2. The effective counts are reported in Stats.
	Subdomains int
	// Overlap is the number of BFS layers added around each subdomain.
	// The zero value defaults to 1 unless OverlapSet is true, in which
	// case Overlap 0 is honored as written: pure block Jacobi.
	Overlap int
	// OverlapSet marks Overlap as explicitly chosen. Without it an
	// Overlap of 0 is indistinguishable from "unset" and silently
	// becomes 1, so explicit block Jacobi would be inexpressible.
	OverlapSet bool
	// NoCoarse disables the second (coarse) level.
	NoCoarse bool
	// LocalAMGThreshold is the subdomain row count above which the
	// local solver is a per-subdomain AMG hierarchy (numeric-only
	// Refresh via the symbolic/numeric split) instead of a dense LU.
	// 0 selects DefaultLocalAMGThreshold; negative forces dense LU
	// everywhere (subject to sparse.MaxDenseN). The same cutoff picks
	// the coarse-level solver.
	LocalAMGThreshold int
	// Threads is the worker count for partitioning, coarse-level setup,
	// and the fan of subdomain applies (0 = GOMAXPROCS). Per-subdomain
	// AMG hierarchies are always built single-threaded: their applies
	// run inside the pooled subdomain fan, where a nested pool handoff
	// is not allowed — the fan across subdomains is the parallelism.
	Threads int
}

// localCutoff resolves LocalAMGThreshold's zero/negative conventions.
func (o Options) localCutoff() int {
	switch {
	case o.LocalAMGThreshold < 0:
		return math.MaxInt
	case o.LocalAMGThreshold == 0:
		return DefaultLocalAMGThreshold
	default:
		return o.LocalAMGThreshold
	}
}

// effective resolves the requested subdomain count and overlap for an
// n-row operator: the power-of-two rounding and the Overlap/OverlapSet
// defaulting rule, in one place, so Stats always reports what actually
// ran.
func (o Options) effective(n int) (requested, parts, overlap int) {
	requested = o.Subdomains
	if requested <= 0 {
		requested = n / 256
	}
	if requested < 2 {
		requested = 2
	}
	parts = requested
	for parts&(parts-1) != 0 {
		parts++
	}
	overlap = o.Overlap
	if overlap == 0 && !o.OverlapSet {
		overlap = 1
	}
	return requested, parts, overlap
}

// Stats reports the effective configuration a preconditioner was built
// with — the counts after defaulting and rounding, which Options alone
// does not determine.
type Stats struct {
	// RequestedSubdomains is Options.Subdomains after defaulting
	// (n/256, at least 2), before power-of-two rounding.
	RequestedSubdomains int
	// Parts is the power-of-two part count handed to the partitioner —
	// RequestedSubdomains rounded up.
	Parts int
	// Subdomains is the number of local solves actually built; the
	// partitioner may leave parts empty on small or disconnected
	// graphs, so this can be below Parts.
	Subdomains int
	// Overlap is the effective BFS overlap depth (after the
	// OverlapSet defaulting rule).
	Overlap int
	// AMGLocal and DenseLocal split Subdomains by local solver kind
	// (per-subdomain AMG hierarchy above the size cutoff, dense LU
	// below).
	AMGLocal, DenseLocal int
	// CoarseSize is the dimension of the aggregation coarse space
	// (0 when the coarse level is disabled); CoarseAMG reports whether
	// the coarse system itself is solved by an AMG hierarchy rather
	// than a dense factorization.
	CoarseSize int
	CoarseAMG  bool
}

// layout is the pattern-only decomposition state: the k-way partition
// of the operator's graph and the overlapped, sorted row set of each
// nonempty part. It depends only on the sparsity pattern, so it is
// shared verbatim across numeric refreshes.
type layout struct {
	// N is the operator dimension.
	N int
	// Sets holds the ascending global rows of each overlapped
	// subdomain, one per nonempty part.
	Sets [][]int32
	// MatrixFP is the pattern fingerprint of the operator the layout
	// was derived from; Refresh checks new values against it.
	MatrixFP uint64
	// Stats carries the partition-side effective counts
	// (RequestedSubdomains, Parts, Subdomains, Overlap).
	Stats Stats

	g *graph.CSR // the operator's graph, kept for coarse-level setup
}

// newLayout partitions a's graph into overlapped subdomain row sets.
func newLayout(a *sparse.Matrix, opt Options) (*layout, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("schwarz: matrix must be square")
	}
	n := a.Rows
	if n == 0 {
		return nil, errors.New("schwarz: empty matrix")
	}
	if opt.Overlap < 0 {
		return nil, fmt.Errorf("schwarz: negative overlap %d", opt.Overlap)
	}
	requested, parts, overlap := opt.effective(n)

	rt := par.New(opt.Threads)
	g := a.GraphWith(rt)
	kw, err := partition.KWay(g, parts, partition.Options{Threads: opt.Threads})
	if err != nil {
		return nil, fmt.Errorf("schwarz: partitioning: %w", err)
	}

	lay := &layout{
		N:        n,
		MatrixFP: hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col),
		g:        g,
	}
	inSub := make([]int32, n)
	for i := range inSub {
		inSub[i] = -1
	}
	for part := 0; part < parts; part++ {
		// Collect the subdomain rows, then grow by BFS layers.
		var rows []int32
		for v := 0; v < n; v++ {
			if kw.Part[v] == int32(part) {
				rows = append(rows, int32(v))
				inSub[v] = int32(part)
			}
		}
		if len(rows) == 0 {
			continue
		}
		frontier := rows
		for layer := 0; layer < overlap; layer++ {
			var next []int32
			for _, v := range frontier {
				for _, w := range g.Neighbors(v) {
					if inSub[w] != int32(part) {
						inSub[w] = int32(part)
						next = append(next, w)
						rows = append(rows, w)
					}
				}
			}
			frontier = next
		}
		sortInt32(rows)
		lay.Sets = append(lay.Sets, rows)
		// Reset the overlap marks of rows not owned by this part so
		// later parts see a clean slate.
		for _, v := range rows {
			if kw.Part[v] != int32(part) {
				inSub[v] = -1
			}
		}
	}
	lay.Stats = Stats{
		RequestedSubdomains: requested,
		Parts:               parts,
		Subdomains:          len(lay.Sets),
		Overlap:             overlap,
	}
	return lay, nil
}

// subdomain is one local solver: the overlapped row set, the local
// submatrix A(rows, rows) with a cached gather schedule back into the
// global CSR, and either a dense LU factorization (small subdomains) or
// a per-subdomain AMG hierarchy (large ones). A mutex serializes Solve
// and Refresh.
type subdomain struct {
	mu     sync.Mutex
	rows   []int32
	gather []int32 // local entry -> global entry index in the source CSR
	local  *sparse.Matrix
	lu     *sparse.Dense
	h      *amg.Hierarchy
}

// newSubdomain builds the local solver for the overlapped row set rows
// of a (ascending global indices). The local values are copied out of
// a; a is not retained.
func newSubdomain(a *sparse.Matrix, rows []int32, opt Options) (*subdomain, error) {
	m := len(rows)
	pos := make(map[int32]int32, m)
	for i, v := range rows {
		pos[v] = int32(i)
	}
	local := &sparse.Matrix{Rows: m, Cols: m, RowPtr: make([]int, m+1)}
	var gather []int32
	for i, v := range rows {
		for q := a.RowPtr[v]; q < a.RowPtr[v+1]; q++ {
			if j, ok := pos[a.Col[q]]; ok {
				local.Col = append(local.Col, j)
				local.Val = append(local.Val, a.Val[q])
				gather = append(gather, int32(q))
			}
		}
		local.RowPtr[i+1] = len(local.Col)
	}
	sd := &subdomain{rows: rows, gather: gather, local: local}
	if m > opt.localCutoff() {
		// Per-subdomain AMG: symbolic once here, numeric replays on
		// Refresh. Single-threaded by design — see Options.Threads.
		h, err := amg.BuildSymbolic(local, localAMGOptions())
		if err != nil {
			return nil, fmt.Errorf("local AMG setup: %w", err)
		}
		if err := h.BuildNumeric(local); err != nil {
			return nil, fmt.Errorf("local AMG numeric setup: %w", err)
		}
		sd.h = h
		return sd, nil
	}
	lu, err := sparse.NewDense(m)
	if err != nil {
		return nil, fmt.Errorf("subdomain too large for a dense solve (%d rows): %w; increase Subdomains or lower LocalAMGThreshold", m, err)
	}
	if err := lu.FillFrom(local); err != nil {
		return nil, err
	}
	if err := lu.Factorize(); err != nil {
		return nil, fmt.Errorf("local factorization: %w", err)
	}
	sd.lu = lu
	return sd, nil
}

// localAMGOptions is the configuration of per-subdomain hierarchies:
// single-threaded (the applies run inside the pooled subdomain fan,
// which must not nest pool handoffs — and serial local solves are what
// make results independent of the outer worker count trivially), all
// else at the amg defaults.
func localAMGOptions() amg.Options { return amg.Options{Threads: 1} }

// Refresh gathers the operator's current values through the cached
// entry schedule and replays the numeric-only setup: refactorization
// for dense locals, BuildNumeric (the same plan-replay path as
// amg.Hierarchy.Refresh, minus the history-dependent sign check —
// independent value sets may legally disagree on diagonal signs of the
// overlap region) for AMG locals. The caller must guarantee a has the
// pattern the subdomain was built from.
func (sd *subdomain) Refresh(a *sparse.Matrix) error {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	for j, q := range sd.gather {
		sd.local.Val[j] = a.Val[q]
	}
	if sd.h != nil {
		return sd.h.BuildNumeric(sd.local)
	}
	if err := sd.lu.FillFrom(sd.local); err != nil {
		return err
	}
	return sd.lu.Factorize()
}

// Solve applies the local solver, z = A_i⁻¹ r, in the subdomain's local
// indexing (r and z are caller-owned, length NumRows). The internal
// solver state is serialized by the subdomain's mutex.
func (sd *subdomain) Solve(r, z []float64) {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if sd.h != nil {
		sd.h.Precondition(r, z)
		return
	}
	sd.lu.Solve(r, z)
}

// NumRows reports the overlapped subdomain size.
func (sd *subdomain) NumRows() int { return len(sd.rows) }

// coarseLevel is the second level: the MIS-2 aggregation coarse space with
// its Galerkin operator Ac = P0ᵀ A P0, refreshed through a cached RAP
// plan, and a direct or AMG solver for the coarse system. The tentative
// prolongator's values depend only on aggregate sizes (the pattern), so
// P0 and R0 = P0ᵀ are computed once and only the RAP replay is numeric
// work. A mutex serializes Solve and Refresh, like subdomain.
type coarseLevel struct {
	mu     sync.Mutex
	p0, r0 *sparse.Matrix
	rap    *sparse.RAPPlan
	ac     *sparse.Matrix
	lu     *sparse.Dense
	h      *amg.Hierarchy
	nc     int
}

// newCoarseLevel builds the coarse level for a using the layout's graph.
func newCoarseLevel(rt *par.Runtime, a *sparse.Matrix, lay *layout, opt Options) (*coarseLevel, error) {
	agg := coarsen.MIS2Aggregation(lay.g, coarsen.Options{Threads: opt.Threads})
	p0 := coarsen.Prolongator(agg)
	tp := sparse.PlanTranspose(rt, p0)
	r0 := tp.NewMatrix()
	if err := tp.Replay(rt, p0, r0); err != nil {
		return nil, fmt.Errorf("schwarz: coarse restriction: %w", err)
	}
	rap, err := sparse.PlanRAP(rt, r0, a, p0)
	if err != nil {
		return nil, fmt.Errorf("schwarz: coarse Galerkin plan: %w", err)
	}
	ac := rap.NewMatrix()
	if err := rap.Replay(rt, r0, a, p0, ac); err != nil {
		return nil, fmt.Errorf("schwarz: coarse Galerkin: %w", err)
	}
	c := &coarseLevel{p0: p0, r0: r0, rap: rap, ac: ac, nc: agg.NumAggregates}
	cutoff := opt.localCutoff()
	if cutoff > sparse.MaxDenseN {
		cutoff = sparse.MaxDenseN
	}
	if c.nc <= cutoff {
		lu, err := sparse.NewDense(c.nc)
		if err != nil {
			return nil, err
		}
		if err := lu.FillFrom(ac); err != nil {
			return nil, err
		}
		if err := lu.Factorize(); err != nil {
			return nil, fmt.Errorf("schwarz: coarse factorization: %w", err)
		}
		c.lu = lu
		return c, nil
	}
	h, err := amg.BuildSymbolic(ac, amg.Options{Threads: opt.Threads})
	if err != nil {
		return nil, fmt.Errorf("schwarz: coarse AMG setup: %w", err)
	}
	if err := h.BuildNumeric(ac); err != nil {
		return nil, fmt.Errorf("schwarz: coarse AMG numeric setup: %w", err)
	}
	c.h = h
	return c, nil
}

// Refresh replays the numeric coarse setup against a's current values:
// the RAP plan replay and the refactorization (or AMG numeric replay)
// of the coarse system. Same caller contract as subdomain.Refresh.
func (c *coarseLevel) Refresh(rt *par.Runtime, a *sparse.Matrix) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.rap.Replay(rt, c.r0, a, c.p0, c.ac); err != nil {
		return err
	}
	if c.h != nil {
		return c.h.BuildNumeric(c.ac)
	}
	if err := c.lu.FillFrom(c.ac); err != nil {
		return err
	}
	return c.lu.Factorize()
}

// Solve solves the coarse system, cz = Ac⁻¹ cr (both length nc,
// caller-owned), serialized by the coarse level's mutex.
func (c *coarseLevel) Solve(cr, cz []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.h != nil {
		c.h.Precondition(cr, cz)
		return
	}
	c.lu.Solve(cr, cz)
}

// restrict computes cr = P0ᵀ r. P0 is immutable after construction, so
// this needs no lock.
func (c *coarseLevel) restrict(r, cr []float64) {
	for i := range cr {
		cr[i] = 0
	}
	p := c.p0
	for v := 0; v < p.Rows; v++ {
		for q := p.RowPtr[v]; q < p.RowPtr[v+1]; q++ {
			cr[p.Col[q]] += p.Val[q] * r[v]
		}
	}
}

// prolongAdd computes z += P0 cz (lock-free like restrict).
func (c *coarseLevel) prolongAdd(cz, z []float64) {
	p := c.p0
	for v := 0; v < p.Rows; v++ {
		for q := p.RowPtr[v]; q < p.RowPtr[v+1]; q++ {
			z[v] += p.Val[q] * cz[p.Col[q]]
		}
	}
}

// Preconditioner is an additive Schwarz operator; it implements
// krylov.Preconditioner. An instance is single-caller: it owns its
// per-apply vector scratch.
type Preconditioner struct {
	n      int
	rt     *par.Runtime
	lay    *layout
	subs   []*subdomain
	coarse *coarseLevel
	// Apply scratch: per-subdomain gather/solution buffers and the
	// coarse-space pair.
	rbuf, zbuf [][]float64
	cr, cz     []float64
	valid      bool
	stats      Stats
}

// assemble wires built components into an applyable Preconditioner
// with fresh apply scratch.
func assemble(rt *par.Runtime, lay *layout, subs []*subdomain, coarse *coarseLevel) *Preconditioner {
	p := &Preconditioner{
		n: lay.N, rt: rt, lay: lay, subs: subs, coarse: coarse,
		rbuf: make([][]float64, len(subs)),
		zbuf: make([][]float64, len(subs)),
	}
	st := lay.Stats
	for i, sd := range subs {
		p.rbuf[i] = make([]float64, sd.NumRows())
		p.zbuf[i] = make([]float64, sd.NumRows())
		if sd.h != nil {
			st.AMGLocal++
		} else {
			st.DenseLocal++
		}
	}
	if coarse != nil {
		p.cr = make([]float64, coarse.nc)
		p.cz = make([]float64, coarse.nc)
		st.CoarseSize = coarse.nc
		st.CoarseAMG = coarse.h != nil
	}
	p.stats = st
	p.valid = true
	return p
}

// New builds the preconditioner for the SPD operator a. Only CSR
// operators (*sparse.Matrix) are accepted: subdomain extraction needs
// the entry arrays, which apply-only formats do not expose.
func New(a sparse.Operator, opt Options) (*Preconditioner, error) {
	return NewCtx(nil, a, opt)
}

// NewCtx is New with cooperative cancellation, checked between
// subdomain builds and before the coarse level. ctx may be nil (never
// cancels).
func NewCtx(ctx context.Context, a sparse.Operator, opt Options) (*Preconditioner, error) {
	m, err := csrMatrix(a)
	if err != nil {
		return nil, err
	}
	lay, err := newLayout(m, opt)
	if err != nil {
		return nil, err
	}
	rt := par.New(opt.Threads)
	subs := make([]*subdomain, len(lay.Sets))
	for i, rows := range lay.Sets {
		if err := ctxErr(ctx); err != nil {
			return nil, cancelErr(ctx)
		}
		if subs[i], err = newSubdomain(m, rows, opt); err != nil {
			return nil, fmt.Errorf("schwarz: subdomain %d: %w", i, err)
		}
	}
	var coarse *coarseLevel
	if !opt.NoCoarse {
		if err := ctxErr(ctx); err != nil {
			return nil, cancelErr(ctx)
		}
		if coarse, err = newCoarseLevel(rt, m, lay, opt); err != nil {
			return nil, err
		}
	}
	return assemble(rt, lay, subs, coarse), nil
}

// Refresh replays the numeric-only setup for an operator with the same
// pattern New saw: per-subdomain value gathers and refactorizations (or
// AMG numeric replays) plus the coarse RAP replay. Validity follows the
// amg.Hierarchy two-zone rule: rejections before any mutation (pattern
// mismatch, wrong shape, early cancellation) leave the previous state
// fully usable; failures after mutation began invalidate the
// preconditioner until a Refresh succeeds.
func (p *Preconditioner) Refresh(a sparse.Operator) error {
	return p.RefreshCtx(nil, a)
}

// RefreshCtx is Refresh with cooperative cancellation, checked between
// subdomain refreshes. ctx may be nil (never cancels).
func (p *Preconditioner) RefreshCtx(ctx context.Context, a sparse.Operator) error {
	m, err := csrMatrix(a)
	if err != nil {
		return err
	}
	if m.Rows != p.n || m.Cols != p.n {
		return fmt.Errorf("schwarz: Refresh with %dx%d operator, preconditioner built for %dx%d", m.Rows, m.Cols, p.n, p.n)
	}
	if hash.PatternFingerprint(m.Rows, m.Cols, m.RowPtr, m.Col) != p.lay.MatrixFP {
		return errors.New("schwarz: Refresh pattern differs from the pattern New saw; rebuild with New")
	}
	if err := ctxErr(ctx); err != nil {
		return cancelErr(ctx) // pre-mutation: previous state stays usable
	}
	for i, sd := range p.subs {
		if err := sd.Refresh(m); err != nil {
			p.valid = false
			return fmt.Errorf("schwarz: subdomain %d refresh: %w", i, err)
		}
		if err := ctxErr(ctx); err != nil {
			p.valid = false // mid-replay: mixed values across subdomains
			return cancelErr(ctx)
		}
	}
	if p.coarse != nil {
		if err := p.coarse.Refresh(p.rt, m); err != nil {
			p.valid = false
			return fmt.Errorf("schwarz: coarse refresh: %w", err)
		}
	}
	p.valid = true
	return nil
}

// Valid reports whether the preconditioner has a consistent numeric
// state (false only after a mid-replay Refresh failure, until a Refresh
// succeeds).
func (p *Preconditioner) Valid() bool { return p.valid }

// checkValid panics on use of an invalidated preconditioner: applying
// half-refreshed subdomains would silently corrupt results, so misuse
// fails loudly instead (the amg.Hierarchy convention).
func (p *Preconditioner) checkValid() {
	if !p.valid {
		panic("schwarz: preconditioner has no valid numeric state (the last Refresh failed mid-replay); run Refresh successfully or rebuild with New before applying")
	}
}

// NumSubdomains reports how many local solves the preconditioner
// applies.
func (p *Preconditioner) NumSubdomains() int { return len(p.subs) }

// HasCoarse reports whether the coarse level is active.
func (p *Preconditioner) HasCoarse() bool { return p.coarse != nil }

// Stats reports the effective configuration (see Stats).
func (p *Preconditioner) Stats() Stats { return p.stats }

// Precondition applies z = Σᵢ Rᵢᵀ Aᵢ⁻¹ Rᵢ r (+ coarse correction):
// one-level restricted local solves plus the aggregation coarse space.
// Additive combination keeps the operator symmetric, so it is a valid
// CG preconditioner.
func (p *Preconditioner) Precondition(r, z []float64) {
	if err := p.ApplyCtx(nil, r, z); err != nil {
		// Unreachable: a nil context never cancels and ApplyCtx has no
		// other error path.
		panic(fmt.Sprintf("schwarz: %v", err))
	}
}

// ApplyCtx is Precondition with cooperative cancellation. The apply is
// staged so z is written only in a final accumulation phase: local
// solves fan across the worker pool into per-subdomain scratch (one
// block per subdomain — the fixed blocking that makes results bitwise
// identical for every worker count), the coarse solve fills its own
// scratch, and only then is z zeroed and accumulated serially in
// subdomain order. Cancellation is checked between phases, so a
// canceled apply returns ErrCanceled with z untouched — no partial
// iterate, mirroring the krylov contract.
func (p *Preconditioner) ApplyCtx(ctx context.Context, r, z []float64) error {
	p.checkValid()
	if err := ctxErr(ctx); err != nil {
		return cancelErr(ctx)
	}
	p.rt.ForBlocks(len(p.subs), func(i int) {
		sd := p.subs[i]
		rl := p.rbuf[i]
		for k, v := range sd.rows {
			rl[k] = r[v]
		}
		sd.Solve(rl, p.zbuf[i])
	})
	if err := ctxErr(ctx); err != nil {
		return cancelErr(ctx)
	}
	if p.coarse != nil {
		p.coarse.restrict(r, p.cr)
		p.coarse.Solve(p.cr, p.cz)
		if err := ctxErr(ctx); err != nil {
			return cancelErr(ctx)
		}
	}
	for i := range z {
		z[i] = 0
	}
	for i, sd := range p.subs {
		zl := p.zbuf[i]
		for k, v := range sd.rows {
			z[v] += zl[k]
		}
	}
	if p.coarse != nil {
		p.coarse.prolongAdd(p.cz, z)
	}
	return nil
}

// csrMatrix unwraps the CSR view setup needs; apply-only formats are
// rejected with a descriptive error.
func csrMatrix(a sparse.Operator) (*sparse.Matrix, error) {
	m, ok := a.(*sparse.Matrix)
	if !ok {
		return nil, fmt.Errorf("schwarz: %T exposes no CSR entries to extract subdomains from; pass the *sparse.Matrix (SELL views are apply-only)", a)
	}
	return m, nil
}

// ctxErr reports the context's cancellation error, treating nil as
// context.Background().
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cancelErr wraps the context's cause under ErrCanceled.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

func sortInt32(a []int32) {
	// Insertion sort is fine: rows are mostly sorted already (owned rows
	// ascending, overlap appended); subdomains are small.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
