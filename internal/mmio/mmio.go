// Package mmio reads and writes Matrix Market (.mtx) files, the exchange
// format of the SuiteSparse collection the paper's experiments draw from.
// The offline test environment substitutes synthetic surrogates
// (internal/matrices), but a downstream user with the real files can load
// them through this package and run every algorithm unchanged.
//
// Supported: `matrix coordinate` with `real`, `integer` or `pattern`
// fields and `general` or `symmetric` symmetry, the subset covering the
// paper's 15 SuiteSparse matrices.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mis2go/internal/graph"
	"mis2go/internal/sparse"
)

// header describes a parsed MatrixMarket banner plus size line.
type header struct {
	rows, cols, nnz int
	pattern         bool
	symmetric       bool
}

func parseHeader(sc *bufio.Scanner) (header, error) {
	var h header
	if !sc.Scan() {
		return h, fmt.Errorf("mmio: empty input: %w", sc.Err())
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) < 5 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" {
		return h, fmt.Errorf("mmio: bad banner %q", sc.Text())
	}
	if banner[2] != "coordinate" {
		return h, fmt.Errorf("mmio: unsupported format %q (only coordinate)", banner[2])
	}
	switch banner[3] {
	case "real", "integer":
	case "pattern":
		h.pattern = true
	default:
		return h, fmt.Errorf("mmio: unsupported field %q", banner[3])
	}
	switch banner[4] {
	case "general":
	case "symmetric":
		h.symmetric = true
	default:
		return h, fmt.Errorf("mmio: unsupported symmetry %q", banner[4])
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return h, fmt.Errorf("mmio: bad size line %q", line)
		}
		var err error
		if h.rows, err = strconv.Atoi(f[0]); err != nil {
			return h, fmt.Errorf("mmio: bad row count: %w", err)
		}
		if h.cols, err = strconv.Atoi(f[1]); err != nil {
			return h, fmt.Errorf("mmio: bad col count: %w", err)
		}
		if h.nnz, err = strconv.Atoi(f[2]); err != nil {
			return h, fmt.Errorf("mmio: bad nnz count: %w", err)
		}
		if h.rows < 0 || h.cols < 0 || h.nnz < 0 {
			return h, fmt.Errorf("mmio: negative size line %q", line)
		}
		return h, nil
	}
	return h, fmt.Errorf("mmio: missing size line")
}

// entry is one coordinate triplet.
type entry struct {
	r, c int32
	v    float64
}

func readEntries(sc *bufio.Scanner, h header) ([]entry, error) {
	// Cap the header-driven preallocation: a corrupt size line must not
	// be able to demand an arbitrarily large upfront allocation.
	capHint := h.nnz
	if capHint > 1<<22 {
		capHint = 1 << 22
	}
	entries := make([]entry, 0, capHint)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if h.pattern {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("mmio: short entry %q", line)
		}
		r, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: bad row index: %w", err)
		}
		c, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: bad col index: %w", err)
		}
		if r < 1 || r > h.rows || c < 1 || c > h.cols {
			return nil, fmt.Errorf("mmio: index (%d,%d) out of bounds %dx%d", r, c, h.rows, h.cols)
		}
		v := 1.0
		if !h.pattern {
			if v, err = strconv.ParseFloat(f[2], 64); err != nil {
				return nil, fmt.Errorf("mmio: bad value: %w", err)
			}
		}
		entries = append(entries, entry{r: int32(r - 1), c: int32(c - 1), v: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) < h.nnz {
		return nil, fmt.Errorf("mmio: truncated input: header promises %d entries, found only %d", h.nnz, len(entries))
	}
	if len(entries) > h.nnz {
		return nil, fmt.Errorf("mmio: header promises %d entries, found %d (trailing data?)", h.nnz, len(entries))
	}
	return entries, nil
}

// ReadMatrix parses a Matrix Market stream into a CSR matrix. Symmetric
// inputs are expanded to full storage. Duplicate coordinates are
// rejected: the Matrix Market coordinate format stores each entry once,
// and silently summing (or keeping one of) the duplicates corrupts the
// matrix — in a symmetric file, storing both triangles of a pair makes
// the expanded value silently double.
func ReadMatrix(r io.Reader) (*sparse.Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	h, err := parseHeader(sc)
	if err != nil {
		return nil, err
	}
	entries, err := readEntries(sc, h)
	if err != nil {
		return nil, err
	}
	if h.symmetric {
		n := len(entries)
		for i := 0; i < n; i++ {
			e := entries[i]
			if e.r != e.c {
				entries = append(entries, entry{r: e.c, c: e.r, v: e.v})
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].r != entries[j].r {
			return entries[i].r < entries[j].r
		}
		return entries[i].c < entries[j].c
	})
	for i := 1; i < len(entries); i++ {
		if entries[i].r == entries[i-1].r && entries[i].c == entries[i-1].c {
			hint := ""
			if h.symmetric {
				hint = " (a symmetric file stores each off-diagonal pair once; the mirror is implied)"
			}
			return nil, fmt.Errorf("mmio: duplicate coordinate entry (%d,%d)%s",
				entries[i].r+1, entries[i].c+1, hint)
		}
	}
	m := &sparse.Matrix{Rows: h.rows, Cols: h.cols}
	m.RowPtr = make([]int, h.rows+1)
	m.Col = make([]int32, 0, len(entries))
	m.Val = make([]float64, 0, len(entries))
	for _, e := range entries {
		m.Col = append(m.Col, e.c)
		m.Val = append(m.Val, e.v)
		m.RowPtr[e.r+1]++
	}
	for i := 0; i < h.rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mmio: inconsistent matrix: %w", err)
	}
	return m, nil
}

// ReadGraph parses a Matrix Market stream as an undirected graph:
// the pattern of the matrix, symmetrized, diagonal dropped.
func ReadGraph(r io.Reader) (*graph.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	h, err := parseHeader(sc)
	if err != nil {
		return nil, err
	}
	if h.rows != h.cols {
		return nil, fmt.Errorf("mmio: graph requires square matrix, got %dx%d", h.rows, h.cols)
	}
	entries, err := readEntries(sc, h)
	if err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, 0, len(entries))
	for _, e := range entries {
		if e.r != e.c {
			edges = append(edges, graph.Edge{U: e.r, V: e.c})
		}
	}
	return graph.FromEdges(h.rows, edges), nil
}

// WriteMatrix writes m in coordinate real general format.
func WriteMatrix(w io.Writer, m *sparse.Matrix) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general")
	fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.Col[p]+1, m.Val[p])
		}
	}
	return bw.Flush()
}
