package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/serve"
)

// testServer returns an httptest server over a small solve service.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := serve.New(serve.Config{
		AMG:     amg.Options{MinCoarseSize: 30},
		Tol:     1e-10,
		MaxIter: 200,
	})
	ts := httptest.NewServer(newMux(svc, 64<<20))
	t.Cleanup(ts.Close)
	return ts
}

// laplaceRequest builds the JSON request body for a small Laplacian
// system with a deterministic RHS.
func laplaceRequest(t *testing.T, scale float64) ([]byte, int) {
	t.Helper()
	a := gen.Laplacian(gen.Laplace2D(12, 12), 0.1)
	a.Scale(scale)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	body, err := json.Marshal(solveRequest{
		Rows: a.Rows, RowPtr: a.RowPtr, Col: a.Col, Val: a.Val, B: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body, a.Rows
}

func postSolve(t *testing.T, ts *httptest.Server, body []byte) solveResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("solve status %d: %s", resp.StatusCode, msg)
	}
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestSolveEndpoint(t *testing.T) {
	ts := testServer(t)
	body, n := laplaceRequest(t, 1)

	sr := postSolve(t, ts, body)
	if sr.Outcome != "build" {
		t.Fatalf("first solve outcome %q, want build", sr.Outcome)
	}
	if len(sr.X) != n || len(sr.Columns) != 1 || !sr.Columns[0].Converged {
		t.Fatalf("bad response: %d unknowns, %d columns", len(sr.X), len(sr.Columns))
	}
	for _, v := range sr.X {
		if math.IsNaN(v) {
			t.Fatal("NaN in solution")
		}
	}

	// Same system again: served from cache with identical bits.
	sr2 := postSolve(t, ts, body)
	if sr2.Outcome != "reuse" {
		t.Fatalf("repeat outcome %q, want reuse", sr2.Outcome)
	}
	for i := range sr.X {
		if sr.X[i] != sr2.X[i] {
			t.Fatalf("cached solve differs at %d", i)
		}
	}

	// Same pattern, new values: numeric refresh.
	body3, _ := laplaceRequest(t, 2)
	if sr3 := postSolve(t, ts, body3); sr3.Outcome != "refresh" {
		t.Fatalf("new-values outcome %q, want refresh", sr3.Outcome)
	}
}

func TestSolveEndpointMultiRHS(t *testing.T) {
	ts := testServer(t)
	a := gen.Laplacian(gen.Laplace2D(10, 10), 0.1)
	bs := make([][]float64, 3)
	for j := range bs {
		bs[j] = make([]float64, a.Rows)
		for i := range bs[j] {
			bs[j][i] = float64((i+j)%5) + 1
		}
	}
	body, _ := json.Marshal(solveRequest{Rows: a.Rows, RowPtr: a.RowPtr, Col: a.Col, Val: a.Val, Bs: bs})
	sr := postSolve(t, ts, body)
	if len(sr.Columns) != 3 {
		t.Fatalf("multi-RHS: %d columns, want 3", len(sr.Columns))
	}
	if sr.X != nil {
		t.Fatal("single-RHS convenience field set on a bs-only request")
	}
}

func TestSolveEndpointRejectsBadRequests(t *testing.T) {
	ts := testServer(t)
	for name, body := range map[string]string{
		"garbage":          "{not json",
		"no-rhs":           `{"rows":1,"rowptr":[0,1],"col":[0],"val":[2]}`,
		"bad-matrix":       `{"rows":2,"rowptr":[0,1],"col":[0],"val":[2],"b":[1,2]}`,
		"short-b":          `{"rows":2,"rowptr":[0,1,2],"col":[0,1],"val":[2,2],"b":[1]}`,
		"top-level-array":  `[{"rows":1,"rowptr":[0,1],"col":[0],"val":[2],"b":[1]}]`,
		"fractional-rows":  `{"rows":1.5,"rowptr":[0,1],"col":[0],"val":[2],"b":[1]}`,
		"col-past-int32":   `{"rows":1,"rowptr":[0,1],"col":[2147483648],"val":[2],"b":[1]}`,
		"val-past-float64": `{"rows":1,"rowptr":[0,1],"col":[0],"val":[1e400],"b":[1]}`,
		"trailing-comma":   `{"rows":1,"rowptr":[0,1],"col":[0],"val":[2],"b":[1],}`,
		"truncated":        `{"rows":1,"rowptr":[0,1],"col":[0],"val":[2],"b":[1`,
	} {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, resp.StatusCode, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve status %d, want 405", resp.StatusCode)
	}
}

// TestSolveEndpointBodyTooLarge413: a body past the -maxbody cap is
// refused as too large, not as malformed.
func TestSolveEndpointBodyTooLarge413(t *testing.T) {
	svc := serve.New(serve.Config{})
	ts := httptest.NewServer(newMux(svc, 1<<10))
	t.Cleanup(ts.Close)
	body := `{"pad":"` + strings.Repeat("x", 4<<10) + `"}`
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("4 KB body over a 1 KB cap: status %d, want 413: %s", resp.StatusCode, msg)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	body, _ := laplaceRequest(t, 1)
	postSolve(t, ts, body)
	postSolve(t, ts, body)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"amgserve_requests_total 2",
		"amgserve_cache_builds_total 1",
		"amgserve_cache_hits_total 1",
		"amgserve_canceled_total 0",
		"amgserve_panics_total 0",
		"amgserve_batched_rhs_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}

	// The exposition is a contract: dashboards and cmd/amgbench's serve
	// workload read these series by name, so adding or removing one must
	// be a deliberate edit of this list.
	want := []string{
		"amgserve_batch_solves_total",
		"amgserve_batched_rhs_ratio",
		"amgserve_batched_rhs_total",
		"amgserve_cache_builds_total",
		"amgserve_cache_collisions_total",
		"amgserve_cache_evictions_total",
		"amgserve_cache_hits_total",
		"amgserve_cache_refreshes_total",
		"amgserve_canceled_total",
		"amgserve_escalation_recoveries_total",
		"amgserve_escalations_total",
		"amgserve_numerical_failures_total",
		"amgserve_panics_total",
		"amgserve_probe_failures_total",
		"amgserve_probe_successes_total",
		"amgserve_probes_total",
		"amgserve_quarantine_rejections_total",
		"amgserve_quarantines_total",
		"amgserve_rejected_total",
		"amgserve_requests_total",
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		name, _, _ := strings.Cut(line, " ")
		got = append(got, name)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("metrics series = %q,\nwant %q", got, want)
	}
}

// singularRequest is the JSON body for an exactly singular Neumann
// Laplacian — a poison system whose AMG-preconditioned CG diverges
// deterministically (a classified numerical failure, not a 400).
func singularRequest(t *testing.T) []byte {
	t.Helper()
	a := gen.Laplacian(gen.Laplace2D(16, 16), 0)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	body, err := json.Marshal(solveRequest{
		Rows: a.Rows, RowPtr: a.RowPtr, Col: a.Col, Val: a.Val, B: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSolveEndpointClassifiesDivergence: a diverging solve answers 422
// with the failure class in the error text, per-column stats, no
// convenience "x", and converged=false.
func TestSolveEndpointClassifiesDivergence(t *testing.T) {
	svc := serve.New(serve.Config{
		AMG:                 amg.Options{MinCoarseSize: 30},
		Tol:                 1e-10,
		MaxIter:             200,
		MaxEscalations:      -1,
		QuarantineThreshold: -1,
	})
	ts := httptest.NewServer(newMux(svc, 64<<20))
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(singularRequest(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d for diverged solve, want 422", resp.StatusCode)
	}
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sr.Error, "diverged") {
		t.Fatalf("error %q does not name the failure class", sr.Error)
	}
	if sr.X != nil || sr.Converged {
		t.Fatalf("diverged response leaked a converged-looking result: %+v", sr)
	}
}

// TestSolveEndpointQuarantine429: after the threshold of consecutive
// numerical failures the pattern is quarantined — further requests are
// rejected 429 with a Retry-After header, paying no solve.
func TestSolveEndpointQuarantine429(t *testing.T) {
	svc := serve.New(serve.Config{
		AMG:                 amg.Options{MinCoarseSize: 30},
		Tol:                 1e-10,
		MaxIter:             200,
		MaxEscalations:      -1,
		QuarantineThreshold: 2,
		QuarantineCooldown:  time.Minute,
	})
	ts := httptest.NewServer(newMux(svc, 64<<20))
	t.Cleanup(ts.Close)
	body := singularRequest(t)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("poison solve %d: status %d, want 422", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quarantined solve: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer of seconds", ra)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"amgserve_numerical_failures_total 2",
		"amgserve_quarantines_total 1",
		"amgserve_quarantine_rejections_total 1",
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("metrics missing %q:\n%s", want, raw)
		}
	}
}

// TestSolveEndpointDeadline504: an expired per-request deadline
// (-solve-timeout) maps to 504 with a Retry-After — a timeout, not a
// numerical verdict.
func TestSolveEndpointDeadline504(t *testing.T) {
	svc := serve.New(serve.Config{
		AMG:          amg.Options{MinCoarseSize: 30},
		Tol:          1e-10,
		MaxIter:      200,
		SolveTimeout: time.Millisecond,
		FaultHook: func(p serve.FaultPhase, ctx context.Context) error {
			if p == serve.FaultAdmitted {
				<-ctx.Done() // the per-request deadline, by construction
			}
			return nil
		},
	})
	ts := httptest.NewServer(newMux(svc, 64<<20))
	t.Cleanup(ts.Close)
	body, _ := laplaceRequest(t, 1)
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out solve: status %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 without Retry-After")
	}
}

// TestSolveEndpointReportsNonConvergence: a solve that exhausts the
// iteration budget must not come back as a bare 200 — the response is
// 422 with the error and per-column stats, and the convenience "x"
// field is withheld.
func TestSolveEndpointReportsNonConvergence(t *testing.T) {
	svc := serve.New(serve.Config{
		AMG:     amg.Options{MinCoarseSize: 30},
		Tol:     1e-14,
		MaxIter: 1, // guaranteed non-convergence on a real system
	})
	ts := httptest.NewServer(newMux(svc, 64<<20))
	t.Cleanup(ts.Close)
	body, _ := laplaceRequest(t, 1)
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d for unconverged solve, want 422", resp.StatusCode)
	}
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Error == "" || sr.X != nil {
		t.Fatalf("unconverged response: error=%q x-set=%v, want error text and no convenience x", sr.Error, sr.X != nil)
	}
	if len(sr.Columns) != 1 || sr.Columns[0].Converged {
		t.Fatalf("unconverged response columns: %+v", sr.Columns)
	}
}

// TestSolveEndpointNonFiniteReply: a partial failure whose residual is
// NaN, which encoding/json cannot encode, still reaches the client as a
// 422 whose body parses, carries the error, and writes the NaN as null,
// both in the column and as the request's worst residual.
func TestSolveEndpointNonFiniteReply(t *testing.T) {
	ts := testServer(t)
	a := gen.Laplacian(gen.Laplace2D(8, 8), 1e-2)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1e308
	}
	body, err := json.Marshal(solveRequest{Rows: a.Rows, RowPtr: a.RowPtr, Col: a.Col, Val: a.Val, B: b})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, raw)
	}
	var sr solveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("422 body does not parse: %v\n%q", err, raw)
	}
	if sr.Error == "" || len(sr.Columns) != 1 {
		t.Fatalf("422 body lost the error or the column: %s", raw)
	}
	if !bytes.Contains(raw, []byte(`"relres":null,"converged":false}`)) {
		t.Fatalf(`column does not report "relres":null: %s`, raw)
	}
	if !bytes.Contains(raw, []byte(`],"converged":false,"relres":null,`)) {
		t.Fatalf(`request does not report "relres":null: %s`, raw)
	}
}
