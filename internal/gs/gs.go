// Package gs implements the Gauss-Seidel preconditioners of the paper's
// §III-C and Table VI:
//
//   - point multicolor Gauss-Seidel: color the matrix graph; rows of one
//     color have no mutual dependencies and update in parallel;
//   - cluster multicolor Gauss-Seidel (Algorithm 4): coarsen the graph
//     into clusters, color the cluster graph; clusters of one color update
//     in parallel, while rows inside a cluster update sequentially, making
//     the method locally equivalent to classical Gauss-Seidel and reducing
//     iteration counts;
//   - classical sequential Gauss-Seidel as a reference.
//
// Symmetric variants ("SGS") sweep colors forward then backward, with row
// order inside each cluster reversed on the backward sweep.
//
//amg:deterministic
package gs

import (
	"errors"
	"fmt"

	"mis2go/internal/coarsen"
	"mis2go/internal/color"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// Multicolor is a set-up multicolor Gauss-Seidel operator (point or
// cluster flavored).
//
// Concurrency: after setup the operator's own state (matrix, inverse
// diagonal, color sets, cluster rows) is read-only until the next
// Refill, so concurrent Sweep/Apply/Precondition calls on one instance
// are safe provided each caller passes its own b and x vectors — the
// sweeps write only into the caller's x. Note that the AMG hierarchy
// passes its level scratch as b/x, so two V-cycles through one
// hierarchy still race (see amg.Hierarchy); the safety here is per
// distinct vectors.
type Multicolor struct {
	a    *sparse.Matrix
	dinv []float64
	// groups[c] lists the update units of color c: for the point method a
	// unit is a single row; for the cluster method the unit indexes
	// clusterRows.
	groups [][]int32
	// clusterRows[k] lists the rows of cluster unit k in ascending order;
	// nil for the point method.
	clusterRows [][]int32
	rt          *par.Runtime
	// NumColors reports the palette size used by the setup.
	NumColors int
}

// NewPoint sets up point multicolor Gauss-Seidel for a: the matrix graph
// is colored with the deterministic parallel coloring, and each color
// class becomes a parallel update group.
func NewPoint(a *sparse.Matrix, threads int) (*Multicolor, error) {
	m, err := NewPointPattern(a, threads)
	if err != nil {
		return nil, err
	}
	if err := m.Refill(a); err != nil {
		return nil, err
	}
	return m, nil
}

// NewPointPattern is the pattern-only half of NewPoint: it colors a's
// matrix graph and reads none of a's values. The operator is not usable
// until Refill supplies them.
func NewPointPattern(a *sparse.Matrix, threads int) (*Multicolor, error) {
	m, err := newPattern(a, threads)
	if err != nil {
		return nil, err
	}
	m.groups = color.Sets(color.Parallel(a.GraphWith(m.rt), threads))
	m.NumColors = len(m.groups)
	return m, nil
}

// NewCluster sets up cluster multicolor Gauss-Seidel (Algorithm 4) from an
// aggregation of the matrix graph: the coarse (cluster) graph is colored;
// same-colored clusters share no matrix entries and update concurrently.
func NewCluster(a *sparse.Matrix, agg coarsen.Aggregation, threads int) (*Multicolor, error) {
	m, err := newPattern(a, threads)
	if err != nil {
		return nil, err
	}
	if err := m.Refill(a); err != nil {
		return nil, err
	}
	g := a.GraphWith(m.rt)
	if err := coarsen.Check(g, agg); err != nil {
		return nil, fmt.Errorf("gs: bad aggregation: %w", err)
	}
	cg := coarsen.CoarseGraph(g, agg)
	colors := color.Parallel(cg, threads)
	m.groups = color.Sets(colors)
	m.NumColors = len(m.groups)
	// Rows per cluster, ascending (deterministic fill by scanning rows).
	m.clusterRows = make([][]int32, agg.NumAggregates)
	sizes := coarsen.Sizes(agg)
	for k := range m.clusterRows {
		m.clusterRows[k] = make([]int32, 0, sizes[k])
	}
	for v, c := range agg.Labels {
		m.clusterRows[c] = append(m.clusterRows[c], int32(v))
	}
	return m, nil
}

func newPattern(a *sparse.Matrix, threads int) (*Multicolor, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("gs: matrix must be square")
	}
	return &Multicolor{dinv: make([]float64, a.Rows), rt: par.New(threads)}, nil
}

// Refill points the operator at a and recomputes its inverse diagonal in
// place, without allocating. a must have the pattern the operator was
// set up with; only its order is checked.
func (m *Multicolor) Refill(a *sparse.Matrix) error {
	if a.Rows != len(m.dinv) || a.Cols != a.Rows {
		return fmt.Errorf("gs: refill matrix is %dx%d, operator was set up for order %d", a.Rows, a.Cols, len(m.dinv))
	}
	a.DiagonalInto(m.rt, m.dinv)
	for i, v := range m.dinv {
		if v == 0 {
			return fmt.Errorf("gs: zero diagonal at row %d", i)
		}
		m.dinv[i] = 1 / v
	}
	m.a = a
	return nil
}

// relaxRow performs the Gauss-Seidel update of row i in place.
//
//amg:hotpath
func (m *Multicolor) relaxRow(i int32, b, x []float64) {
	a := m.a
	s := b[i]
	for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
		j := a.Col[q]
		if j != i {
			s -= a.Val[q] * x[j]
		}
	}
	x[i] = s * m.dinv[i]
}

// Sweep performs one multicolor sweep updating x in place. forward selects
// the color order; for the cluster method the row order inside each
// cluster follows the sweep direction (paper §III-C symmetric variant).
// Single-worker sweeps run inline without closures, so a set-up operator
// sweeps without allocating.
//
//amg:hotpath
func (m *Multicolor) Sweep(b, x []float64, forward bool) {
	nc := len(m.groups)
	for ci := 0; ci < nc; ci++ {
		c := ci
		if !forward {
			c = nc - 1 - ci
		}
		set := m.groups[c]
		if m.rt.Serial(len(set)) {
			m.relaxSet(set, b, x, forward, 0, len(set))
			continue
		}
		m.rt.For(len(set), func(lo, hi int) {
			m.relaxSet(set, b, x, forward, lo, hi)
		})
	}
}

// relaxSet relaxes the units set[lo:hi] of one color class.
//
//amg:hotpath
func (m *Multicolor) relaxSet(set []int32, b, x []float64, forward bool, lo, hi int) {
	if m.clusterRows == nil {
		for k := lo; k < hi; k++ {
			m.relaxRow(set[k], b, x)
		}
		return
	}
	for k := lo; k < hi; k++ {
		rows := m.clusterRows[set[k]]
		if forward {
			for _, i := range rows {
				m.relaxRow(i, b, x)
			}
		} else {
			for r := len(rows) - 1; r >= 0; r-- {
				m.relaxRow(rows[r], b, x)
			}
		}
	}
}

// Apply runs the given number of sweeps on A x = b, updating x in place.
// When symmetric is set each sweep is a forward+backward pair (SGS).
//
//amg:hotpath
func (m *Multicolor) Apply(b, x []float64, sweeps int, symmetric bool) {
	for s := 0; s < sweeps; s++ {
		m.Sweep(b, x, true)
		if symmetric {
			m.Sweep(b, x, false)
		}
	}
}

// Precondition implements krylov.Preconditioner with one symmetric sweep
// from a zero initial guess.
//
//amg:hotpath
func (m *Multicolor) Precondition(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
	m.Apply(r, z, 1, true)
}
