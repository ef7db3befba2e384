package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mis2go/internal/par"
)

// SELL-C-sigma: the sliced-ELLPACK operator format for the memory-bound
// kernel core. Rows are grouped into chunks of C = 8; within a sort
// scope of sigma rows, rows are stably ordered by descending length so
// that, inside every chunk, the rows still holding an entry at column
// position j form a prefix of the chunk's lanes. Entries are stored
// column-position-major per chunk — position j of all active lanes
// contiguously — so the kernel keeps C independent accumulators (one per
// lane) and streams val/col linearly while gathering from x.
//
// Two deviations from textbook SELL-C-sigma, both in service of this
// package's determinism contract:
//
//   - Columns are compressed, not padded: each column position stores
//     only its active lanes (a count per position, descending within a
//     chunk). Padding with zeros would not only waste bandwidth but also
//     perturb results — s + 0*x[j] is not a bitwise no-op when s is -0
//     or x[j] is non-finite.
//   - Position j of a lane is the j-th stored entry of that row in the
//     source CSR matrix, and every lane accumulates strictly left to
//     right with a single accumulator — exactly the canonical per-row
//     order of the CSR kernels (spmvRange). A SELL operator therefore
//     produces bit-identical results to its CSR source, for every
//     kernel and every worker count; the row permutation affects only
//     where writes land, never what is summed in what order.
//
// The packed layout also records, per stored entry, the index of the
// CSR entry it came from. Refreshing values for a same-pattern matrix
// (the AMG numeric/Refresh path) is then a branch-free gather —
// FillValues — with zero allocations.
//
// Concurrency: like *Matrix, all kernels are read-only on the operator
// and safe for concurrent use; FillValues mutates the packed values and
// must be serialized against every reader.
type SELL struct {
	rows, cols int
	sigma      int
	perm       []int32 // lane slot -> original row; length rows
	chunkPtr   []int32 // length nchunks+1: first packed entry of chunk
	width      []int32 // per chunk: length of its longest row
	full       []int32 // per chunk: leading positions with all C lanes active
	cntPtr     []int32 // length nchunks+1: first cnt index of chunk
	cnt        []uint8 // per (chunk, position): active lane count
	col        []int32 // packed column indices
	val        []float64
	entry      []int32 // packed position -> CSR entry index (value replay)
}

// SellC is the SELL chunk size: the number of rows (lanes, independent
// accumulators) each chunk kernel processes at once.
const SellC = 8

// DefaultSellSigma is the default sort scope: windows of this many rows
// are length-sorted. Large enough to make chunks near-uniform on meshes
// with mixed interior/boundary rows, small enough that the row
// permutation stays local and the gathers from x keep their locality.
const DefaultSellSigma = 4096

// CheckSigma validates a requested SELL sort scope: 0 selects the
// default, and any explicit sigma must be a positive multiple of the
// chunk size SellC — a scope below one chunk cannot exist (the
// intra-chunk descending order is what makes active lanes a prefix),
// and a scope that is not chunk-aligned would make a chunk straddle two
// sort windows. Malformed scopes are a descriptive error rather than a
// silent clamp, so a typo in a configuration surfaces instead of
// quietly benchmarking a different layout.
func CheckSigma(sigma int) error {
	if sigma == 0 {
		return nil
	}
	if sigma < 0 || sigma%SellC != 0 {
		return fmt.Errorf("sparse: SELL sigma %d: the sort scope must be a positive multiple of the chunk size C=%d (or 0 for the default %d)",
			sigma, SellC, DefaultSellSigma)
	}
	return nil
}

// NewSELL converts a CSR matrix to SELL-C-sigma. sigma is the sort scope
// (0 selects DefaultSellSigma; any other value must be a positive
// multiple of SellC, see CheckSigma). The conversion is deterministic:
// the length sort is stable, so ties keep row order. Matrices whose
// entry count overflows the 32-bit replay schedule are rejected.
func NewSELL(a *Matrix, sigma int) (*SELL, error) {
	if err := CheckSigma(sigma); err != nil {
		return nil, err
	}
	if len(a.Col) > math.MaxInt32 || a.Rows > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: SELL conversion of %dx%d matrix with %d entries overflows the 32-bit entry schedule",
			a.Rows, a.Cols, len(a.Col))
	}
	if sigma == 0 {
		sigma = DefaultSellSigma
	}
	n := a.Rows
	s := &SELL{rows: n, cols: a.Cols, sigma: sigma}
	s.perm = make([]int32, n)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	rowLen := func(r int32) int { return a.RowPtr[r+1] - a.RowPtr[r] }
	for lo := 0; lo < n; lo += sigma {
		hi := min(lo+sigma, n)
		slices.SortStableFunc(s.perm[lo:hi], func(p, q int32) int {
			return cmp.Compare(rowLen(q), rowLen(p)) // descending
		})
	}

	nchunks := (n + SellC - 1) / SellC
	s.chunkPtr = make([]int32, nchunks+1)
	s.width = make([]int32, nchunks)
	s.full = make([]int32, nchunks)
	s.cntPtr = make([]int32, nchunks+1)
	s.col = make([]int32, 0, len(a.Col))
	s.val = make([]float64, 0, len(a.Col))
	s.entry = make([]int32, 0, len(a.Col))
	for c := 0; c < nchunks; c++ {
		lanes := s.perm[c*SellC : min(c*SellC+SellC, n)]
		w := 0
		for _, r := range lanes {
			w = max(w, rowLen(r))
		}
		full := 0
		if len(lanes) == SellC {
			full = rowLen(lanes[SellC-1]) // shortest lane: lanes are sorted
		}
		s.width[c] = int32(w)
		s.full[c] = int32(full)
		s.chunkPtr[c] = int32(len(s.col))
		s.cntPtr[c] = int32(len(s.cnt))
		for j := 0; j < w; j++ {
			m := 0
			for _, r := range lanes {
				if rowLen(r) <= j {
					break // descending lengths: the rest are shorter too
				}
				p := a.RowPtr[r] + j
				s.col = append(s.col, a.Col[p])
				s.val = append(s.val, a.Val[p])
				s.entry = append(s.entry, int32(p))
				m++
			}
			s.cnt = append(s.cnt, uint8(m))
		}
	}
	s.chunkPtr[nchunks] = int32(len(s.col))
	s.cntPtr[nchunks] = int32(len(s.cnt))
	return s, nil
}

// FillValues refreshes the packed values from a same-pattern CSR matrix
// — a branch-free gather through the cached entry schedule, zero
// allocations. Only the shape and entry count are checked here;
// pattern identity is the caller's contract (the AMG hierarchy
// fingerprints it).
func (s *SELL) FillValues(a *Matrix) error {
	if a.Rows != s.rows || a.Cols != s.cols || len(a.Val) != len(s.val) {
		return fmt.Errorf("sparse: SELL refresh from %dx%d/%d entries, converted from %dx%d/%d",
			a.Rows, a.Cols, len(a.Val), s.rows, s.cols, len(s.val))
	}
	av := a.Val
	for p, e := range s.entry {
		s.val[p] = av[e]
	}
	return nil
}

// Dims returns the operator shape, implementing Operator.
func (s *SELL) Dims() (rows, cols int) { return s.rows, s.cols }

// NNZ returns the number of stored entries.
func (s *SELL) NNZ() int { return len(s.col) }

// Sigma reports the sort scope the operator was converted with.
func (s *SELL) Sigma() int { return s.sigma }

// nchunks returns the chunk count.
func (s *SELL) nchunks() int { return len(s.width) }

// chunkAccum computes the row products of chunk c: accumulator l holds
// the dot product of lane l's row with x, each accumulated strictly left
// to right (the canonical per-row order shared with the CSR kernels).
// The full-lane prefix of positions runs an unrolled two-position step
// with eight independent dependency chains; trailing positions walk the
// per-position lane counts, which descend within the chunk.
//
//amg:hotpath
func (s *SELL) chunkAccum(x []float64, c int) (a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	col, val := s.col, s.val
	p := int(s.chunkPtr[c])
	f := int(s.full[c])
	for j := 0; j+2 <= f; j += 2 {
		cb := col[p : p+16 : p+16]
		vb := val[p : p+16 : p+16]
		a0 += vb[0] * x[cb[0]]
		a0 += vb[8] * x[cb[8]]
		a1 += vb[1] * x[cb[1]]
		a1 += vb[9] * x[cb[9]]
		a2 += vb[2] * x[cb[2]]
		a2 += vb[10] * x[cb[10]]
		a3 += vb[3] * x[cb[3]]
		a3 += vb[11] * x[cb[11]]
		a4 += vb[4] * x[cb[4]]
		a4 += vb[12] * x[cb[12]]
		a5 += vb[5] * x[cb[5]]
		a5 += vb[13] * x[cb[13]]
		a6 += vb[6] * x[cb[6]]
		a6 += vb[14] * x[cb[14]]
		a7 += vb[7] * x[cb[7]]
		a7 += vb[15] * x[cb[15]]
		p += 16
	}
	if f&1 == 1 {
		cb := col[p : p+8 : p+8]
		vb := val[p : p+8 : p+8]
		a0 += vb[0] * x[cb[0]]
		a1 += vb[1] * x[cb[1]]
		a2 += vb[2] * x[cb[2]]
		a3 += vb[3] * x[cb[3]]
		a4 += vb[4] * x[cb[4]]
		a5 += vb[5] * x[cb[5]]
		a6 += vb[6] * x[cb[6]]
		a7 += vb[7] * x[cb[7]]
		p += 8
	}
	if w := int(s.width[c]); f < w {
		cnt := s.cnt
		base := int(s.cntPtr[c])
		for j := f; j < w; j++ {
			// Active lanes are a prefix; past the full positions the count
			// is at most SellC-1 (and at least 1, or the width would end).
			m := cnt[base+j]
			a0 += val[p] * x[col[p]]
			p++
			if m > 1 {
				a1 += val[p] * x[col[p]]
				p++
			}
			if m > 2 {
				a2 += val[p] * x[col[p]]
				p++
			}
			if m > 3 {
				a3 += val[p] * x[col[p]]
				p++
			}
			if m > 4 {
				a4 += val[p] * x[col[p]]
				p++
			}
			if m > 5 {
				a5 += val[p] * x[col[p]]
				p++
			}
			if m > 6 {
				a6 += val[p] * x[col[p]]
				p++
			}
		}
	}
	return
}

// chunkRange maps a row block [lo, hi) from the runtime's blocking to
// the chunks whose first row falls inside it. Consecutive row blocks
// tile the rows, so every chunk lands in exactly one block; blocking
// over rows (not chunks) keeps the parallel split threshold identical
// to the CSR kernels — a level does not need SellC times more rows
// before it splits across workers. Each kernel keeps its own serial
// fast path so single-worker calls build no closure and allocate
// nothing.
//
//amg:hotpath
func chunkRange(lo, hi int) (c0, c1 int) {
	return (lo + SellC - 1) / SellC, (hi + SellC - 1) / SellC
}

// SpMV computes y = A*x, parallel over chunks. Bit-identical to the CSR
// SpMV of the source matrix for every worker count.
//
//amg:hotpath
func (s *SELL) SpMV(rt *par.Runtime, x, y []float64) {
	if rt.Serial(s.rows) {
		s.spmvChunks(x, y, 0, s.nchunks())
		return
	}
	rt.For(s.rows, func(lo, hi int) {
		c0, c1 := chunkRange(lo, hi)
		s.spmvChunks(x, y, c0, c1)
	})
}

//amg:hotpath
func (s *SELL) spmvChunks(x, y []float64, c0, c1 int) {
	for c := c0; c < c1; c++ {
		a0, a1, a2, a3, a4, a5, a6, a7 := s.chunkAccum(x, c)
		slot := c * SellC
		if slot+SellC <= s.rows {
			pm := s.perm[slot : slot+SellC : slot+SellC]
			y[pm[0]] = a0
			y[pm[1]] = a1
			y[pm[2]] = a2
			y[pm[3]] = a3
			y[pm[4]] = a4
			y[pm[5]] = a5
			y[pm[6]] = a6
			y[pm[7]] = a7
			continue
		}
		acc := [SellC]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		for l, r := range s.perm[slot:s.rows] {
			y[r] = acc[l]
		}
	}
}

// SpMVResidual computes r = b - A*x in one traversal. r must not alias x.
//
//amg:hotpath
func (s *SELL) SpMVResidual(rt *par.Runtime, b, x, r []float64) {
	if rt.Serial(s.rows) {
		c0, c1 := 0, s.nchunks()
		s.spmvResidualChunks(b, x, r, c0, c1)
		return
	}
	rt.For(s.rows, func(lo, hi int) {
		c0, c1 := chunkRange(lo, hi)
		s.spmvResidualChunks(b, x, r, c0, c1)
	})
}

//amg:hotpath
func (s *SELL) spmvResidualChunks(b, x, r []float64, c0, c1 int) {
	for c := c0; c < c1; c++ {
		a0, a1, a2, a3, a4, a5, a6, a7 := s.chunkAccum(x, c)
		slot := c * SellC
		if slot+SellC <= s.rows {
			pm := s.perm[slot : slot+SellC : slot+SellC]
			r[pm[0]] = b[pm[0]] - a0
			r[pm[1]] = b[pm[1]] - a1
			r[pm[2]] = b[pm[2]] - a2
			r[pm[3]] = b[pm[3]] - a3
			r[pm[4]] = b[pm[4]] - a4
			r[pm[5]] = b[pm[5]] - a5
			r[pm[6]] = b[pm[6]] - a6
			r[pm[7]] = b[pm[7]] - a7
			continue
		}
		acc := [SellC]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		for l, row := range s.perm[slot:s.rows] {
			r[row] = b[row] - acc[l]
		}
	}
}

// SpMVAdd computes y += A*x in one traversal. y must not alias x.
//
//amg:hotpath
func (s *SELL) SpMVAdd(rt *par.Runtime, x, y []float64) {
	if rt.Serial(s.rows) {
		c0, c1 := 0, s.nchunks()
		s.spmvAddChunks(x, y, c0, c1)
		return
	}
	rt.For(s.rows, func(lo, hi int) {
		c0, c1 := chunkRange(lo, hi)
		s.spmvAddChunks(x, y, c0, c1)
	})
}

//amg:hotpath
func (s *SELL) spmvAddChunks(x, y []float64, c0, c1 int) {
	for c := c0; c < c1; c++ {
		a0, a1, a2, a3, a4, a5, a6, a7 := s.chunkAccum(x, c)
		slot := c * SellC
		if slot+SellC <= s.rows {
			pm := s.perm[slot : slot+SellC : slot+SellC]
			y[pm[0]] += a0
			y[pm[1]] += a1
			y[pm[2]] += a2
			y[pm[3]] += a3
			y[pm[4]] += a4
			y[pm[5]] += a5
			y[pm[6]] += a6
			y[pm[7]] += a7
			continue
		}
		acc := [SellC]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		for l, row := range s.perm[slot:s.rows] {
			y[row] += acc[l]
		}
	}
}

// JacobiSweep computes dst[i] = src[i] + omega*dinv[i]*(b[i] - (A src)[i])
// in one traversal — the fused damped-Jacobi sweep, bit-identical to
// Matrix.JacobiSweep. src and dst must not alias.
//
//amg:hotpath
func (s *SELL) JacobiSweep(rt *par.Runtime, b, dinv []float64, omega float64, src, dst []float64) {
	if rt.Serial(s.rows) {
		c0, c1 := 0, s.nchunks()
		s.jacobiChunks(b, dinv, omega, src, dst, c0, c1)
		return
	}
	rt.For(s.rows, func(lo, hi int) {
		c0, c1 := chunkRange(lo, hi)
		s.jacobiChunks(b, dinv, omega, src, dst, c0, c1)
	})
}

//amg:hotpath
func (s *SELL) jacobiChunks(b, dinv []float64, omega float64, src, dst []float64, c0, c1 int) {
	for c := c0; c < c1; c++ {
		a0, a1, a2, a3, a4, a5, a6, a7 := s.chunkAccum(src, c)
		slot := c * SellC
		if slot+SellC <= s.rows {
			pm := s.perm[slot : slot+SellC : slot+SellC]
			dst[pm[0]] = src[pm[0]] + omega*dinv[pm[0]]*(b[pm[0]]-a0)
			dst[pm[1]] = src[pm[1]] + omega*dinv[pm[1]]*(b[pm[1]]-a1)
			dst[pm[2]] = src[pm[2]] + omega*dinv[pm[2]]*(b[pm[2]]-a2)
			dst[pm[3]] = src[pm[3]] + omega*dinv[pm[3]]*(b[pm[3]]-a3)
			dst[pm[4]] = src[pm[4]] + omega*dinv[pm[4]]*(b[pm[4]]-a4)
			dst[pm[5]] = src[pm[5]] + omega*dinv[pm[5]]*(b[pm[5]]-a5)
			dst[pm[6]] = src[pm[6]] + omega*dinv[pm[6]]*(b[pm[6]]-a6)
			dst[pm[7]] = src[pm[7]] + omega*dinv[pm[7]]*(b[pm[7]]-a7)
			continue
		}
		acc := [SellC]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		for l, row := range s.perm[slot:s.rows] {
			dst[row] = src[row] + omega*dinv[row]*(b[row]-acc[l])
		}
	}
}

// DiagonalInto fills d with the diagonal entries (zero where absent),
// parallel over chunks.
//
//amg:hotpath
func (s *SELL) DiagonalInto(rt *par.Runtime, d []float64) {
	if rt.Serial(s.rows) {
		c0, c1 := 0, s.nchunks()
		s.diagonalChunks(d, c0, c1)
		return
	}
	rt.For(s.rows, func(lo, hi int) {
		c0, c1 := chunkRange(lo, hi)
		s.diagonalChunks(d, c0, c1)
	})
}

//amg:hotpath
func (s *SELL) diagonalChunks(d []float64, c0, c1 int) {
	col, val, cnt := s.col, s.val, s.cnt
	for c := c0; c < c1; c++ {
		slot := c * SellC
		lanes := s.perm[slot:min(slot+SellC, s.rows)]
		for _, row := range lanes {
			d[row] = 0
		}
		p := int(s.chunkPtr[c])
		w := int(s.width[c])
		f := int(s.full[c])
		base := int(s.cntPtr[c])
		for j := 0; j < w; j++ {
			m := SellC
			if j >= f {
				m = int(cnt[base+j])
			}
			for _, row := range lanes[:m] {
				if col[p] == row {
					d[row] = val[p]
				}
				p++
			}
		}
	}
}
