package sparse

import "slices"

// The serial reference for the SpGEMM plans. It states the order
// contract of the plans' value kernel in the plainest code: Gustavson's
// row-by-row product, where an entry's first contribution is stored
// exactly and every later one is added in A's stored order, each A
// entry walking its B row in stored order; rows sorted ascending; and
// the smoothed-prolongator merge p0 + -omega*acc. The plan tests and
// FuzzProductPlan compare every replay against it bit for bit.

// refMultiply returns C = A*B computed serially, one row at a time. It
// assigns the first contribution to each entry and adds the later ones;
// no seed value enters a sum, so the plans' −0 seed is checked by
// independent code. Each row is sorted after it is accumulated.
func refMultiply(a, b *Matrix) *Matrix {
	c := &Matrix{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	// mark[j] is the last row that touched column j.
	mark, acc := make([]int, b.Cols), make([]float64, b.Cols)
	for j := range mark {
		mark[j] = -1
	}
	var cols []int32
	for i := 0; i < a.Rows; i++ {
		cols = cols[:0]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.Col[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				j, x := b.Col[q], a.Val[p]*b.Val[q]
				if mark[j] == i {
					acc[j] += x
				} else {
					mark[j] = i
					acc[j] = x
					cols = append(cols, j)
				}
			}
		}
		slices.Sort(cols)
		for _, j := range cols {
			c.Col = append(c.Col, j)
			c.Val = append(c.Val, acc[j])
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c
}

// refRAP returns R*(A*P), the Galerkin triple product in the order
// RAPPlan replays it.
func refRAP(r, a, p *Matrix) *Matrix { return refMultiply(r, refMultiply(a, p)) }

// refSmooth returns P = (I - omega*D^{-1}*A)*P0 computed serially: each
// entry of A's row i is scaled by dinv[i] first, the product with P0 is
// formed by refMultiply, and each product row is merged with the P0 row.
// Entries both store get p0 + -omega*acc, product-only entries
// -omega*acc, and P0-only entries keep P0's value.
func refSmooth(a, p0 *Matrix, dinv []float64, omega float64) *Matrix {
	s := a.Clone()
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			s.Val[p] = dinv[i] * s.Val[p]
		}
	}
	prod := refMultiply(s, p0)
	c := &Matrix{Rows: a.Rows, Cols: p0.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		pp, ep := prod.RowPtr[i], prod.RowPtr[i+1]
		pq, eq := p0.RowPtr[i], p0.RowPtr[i+1]
		for pp < ep || pq < eq {
			switch {
			case pq == eq || (pp < ep && prod.Col[pp] < p0.Col[pq]):
				c.Col = append(c.Col, prod.Col[pp])
				c.Val = append(c.Val, -omega*prod.Val[pp])
				pp++
			case pp == ep || p0.Col[pq] < prod.Col[pp]:
				c.Col = append(c.Col, p0.Col[pq])
				c.Val = append(c.Val, p0.Val[pq])
				pq++
			default:
				c.Col = append(c.Col, p0.Col[pq])
				c.Val = append(c.Val, p0.Val[pq]+-omega*prod.Val[pp])
				pp++
				pq++
			}
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c
}

// identity returns the n x n identity matrix.
func identity(n int) *Matrix {
	m := &Matrix{Rows: n, Cols: n, RowPtr: make([]int, n+1), Col: make([]int32, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.Col[i] = int32(i)
		m.Val[i] = 1
	}
	return m
}

// shiftDiagonal returns a copy of the square matrix a with s added to
// every diagonal entry, storing the diagonal where a does not: a
// diagonally dominant test system for the dense LU.
func shiftDiagonal(a *Matrix, s float64) *Matrix {
	c := &Matrix{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		diag := false
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j, v := a.Col[p], a.Val[p]
			if !diag && j >= int32(i) {
				if j == int32(i) {
					v += s
				} else {
					c.Col = append(c.Col, int32(i))
					c.Val = append(c.Val, s)
				}
				diag = true
			}
			c.Col = append(c.Col, j)
			c.Val = append(c.Val, v)
		}
		if !diag {
			c.Col = append(c.Col, int32(i))
			c.Val = append(c.Val, s)
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c
}
