package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/serve"
)

// sameSlice compares two decoded slices element by element, telling nil
// from empty: a nil "b" and an empty one are different requests.
func sameSlice[T any](x, y []T, eq func(T, T) bool) bool {
	if (x == nil) != (y == nil) || len(x) != len(y) {
		return false
	}
	for i := range x {
		if !eq(x[i], y[i]) {
			return false
		}
	}
	return true
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func sameFloats(x, y []float64) bool { return sameSlice(x, y, sameBits) }

// requestDiff names the first field in which two decoded requests
// differ, or returns "" when they are equal bit for bit.
func requestDiff(x, y *solveRequest) string {
	eqInt := func(a, b int) bool { return a == b }
	eqInt32 := func(a, b int32) bool { return a == b }
	switch {
	case x.Rows != y.Rows:
		return "rows"
	case x.Cols != y.Cols:
		return "cols"
	case !sameSlice(x.RowPtr, y.RowPtr, eqInt):
		return "rowptr"
	case !sameSlice(x.Col, y.Col, eqInt32):
		return "col"
	case !sameFloats(x.Val, y.Val):
		return "val"
	case !sameFloats(x.B, y.B):
		return "b"
	case !sameSlice(x.Bs, y.Bs, sameFloats):
		return "bs"
	}
	return ""
}

// FuzzSolveRequestDecode holds decodeSolveRequest to encoding/json, the
// decoder it replaced: the same bodies accepted and rejected, and on
// acceptance the same request, floats compared bit for bit. The
// checked-in corpus covers every rule in the package doc.
func FuzzSolveRequestDecode(f *testing.F) {
	// An unknown key nested to encoding/json's depth limit (the top-level
	// object counts as one level), and one level past it.
	deep := func(n int) []byte {
		return []byte(`{"deep":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"rows":1}`)
	}
	f.Add(deep(maxNestingDepth - 1))
	f.Add(deep(maxNestingDepth))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got solveRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		gotErr := decodeSolveRequest(body, &got)
		shown := body[:min(len(body), 200)]
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%d-byte body %q: encoding/json error %v, decoder error %v", len(body), shown, wantErr, gotErr)
		}
		if wantErr == nil {
			if field := requestDiff(&want, &got); field != "" {
				t.Fatalf("%d-byte body %q: %q differs:\nencoding/json %+v\ndecoder       %+v", len(body), shown, field, want, got)
			}
		}
	})
}

// systemBody encodes a canonical-order solve request (rows, rowptr,
// col, val, then b or bs) for the Laplacian of g with nrhs full-precision
// right-hand sides, shaped like cmd/amgbench's serve-mixed bodies.
func systemBody(tb testing.TB, g *graph.CSR, nrhs int) []byte {
	tb.Helper()
	a := gen.Laplacian(g, 1e-4)
	a.Scale(1.125)
	rng := rand.New(rand.NewPCG(1, 2))
	bs := make([][]float64, nrhs)
	for j := range bs {
		bs[j] = make([]float64, a.Rows)
		for i := range bs[j] {
			bs[j][i] = 2*rng.Float64() - 1
		}
	}
	req := solveRequest{Rows: a.Rows, RowPtr: a.RowPtr, Col: a.Col, Val: a.Val}
	if nrhs == 1 {
		req.B = bs[0]
	} else {
		req.Bs = bs
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeSolveRequestAllocs pins the allocation shape of a decode:
// the cursor plus one allocation per decoded slice, sized up front, so
// a body with 8x the unknowns costs no more allocations (no per-number
// allocation and no growth by doubling).
func TestDecodeSolveRequestAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		body := systemBody(t, gen.Laplace3D(n, n, n), 1)
		// 20 runs, so a background GC cycle's own allocations round away.
		return testing.AllocsPerRun(20, func() {
			var req solveRequest
			if err := decodeSolveRequest(body, &req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(16)
	if large > small {
		t.Fatalf("decoding Laplace3D 16^3 allocates %v times, 8^3 %v: allocations grow with the body", large, small)
	}
	if small > 5 {
		t.Fatalf("decoding Laplace3D 8^3 allocates %v times, want at most 5: the cursor and one per slice (rowptr, col, val, b)", small)
	}
}

// TestSolveEndpointHugeRowsClaimIsCheap: a tiny body claiming two
// billion rows is refused 400 without presizing anything for them.
func TestSolveEndpointHugeRowsClaimIsCheap(t *testing.T) {
	mux := newMux(serve.New(serve.Config{}), 64<<20)
	body := `{"rows":2000000000,"rowptr":[0,1],"col":[0],"val":[1],"b":[1]}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("refusing a %d-byte body allocated %d bytes, want under 1 MB", len(body), d)
	}
}

// BenchmarkSolveRequestDecode compares the decoder with encoding/json on
// bodies shaped like serve-mixed's: the three hot patterns with one
// right-hand side, a hot pattern with four, and a cold RandomFEM
// pattern.
func BenchmarkSolveRequestDecode(b *testing.B) {
	for _, s := range []struct {
		name string
		g    *graph.CSR
		nrhs int
	}{
		{"Laplace3D16", gen.Laplace3D(16, 16, 16), 1},
		{"Laplace2D64", gen.Laplace2D(64, 64), 1},
		{"Grid3D27-12", gen.Grid3D27(12, 12, 12), 1},
		{"Laplace3D16x4RHS", gen.Laplace3D(16, 16, 16), 4},
		{"RandomFEM12", gen.RandomFEM(12, 12, 12, 12, 2), 1},
	} {
		body := systemBody(b, s.g, s.nrhs)
		for _, dec := range []struct {
			name   string
			decode func([]byte, *solveRequest) error
		}{
			{"json", func(body []byte, req *solveRequest) error {
				return json.NewDecoder(bytes.NewReader(body)).Decode(req)
			}},
			{"strconv", decodeSolveRequest},
		} {
			b.Run(fmt.Sprintf("%s/%s", s.name, dec.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				for b.Loop() {
					var req solveRequest
					if err := dec.decode(body, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// goldenReply is amgserve's exact reply to goldenRequest. cmd/amgbench
// digests serve-mixed replies from "columns" onward and reads the last
// "converged" and "relres", so the field order and float formatting of
// solveResponse are part of the benchmark's contract: a reordered
// struct or a different encoder must fail here first.
const (
	goldenRequest = `{"rows":4,"rowptr":[0,2,5,8,10],"col":[0,1,0,1,2,1,2,3,2,3],"val":[4,-1,-1,4,-1,-1,4,-1,-1,4],"b":[1,2,3,4]}`
	goldenReply   = `{"outcome":"build","columns":[{"x":[0.4880382775119617,0.952153110047847,1.3205741626794258,1.3301435406698565],"iterations":1,"relres":8.357455313457785e-17,"converged":true}],"x":[0.4880382775119617,0.952153110047847,1.3205741626794258,1.3301435406698565],"converged":true,"relres":8.357455313457785e-17}` + "\n"
)

func TestSolveEndpointGoldenReply(t *testing.T) {
	svc := serve.New(serve.Config{
		AMG:     amg.Options{Threads: 1},
		Tol:     1e-10,
		MaxIter: 100,
	})
	rec := httptest.NewRecorder()
	newMux(svc, 1<<20).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(goldenRequest)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Body.String(); got != goldenReply {
		t.Fatalf("reply changed:\n got %s\nwant %s", got, goldenReply)
	}
}
