// Command amgserve exposes the concurrent solve service over HTTP: a
// JSON solve endpoint backed by the fingerprint-keyed hierarchy cache,
// plus plaintext metrics and lifecycle probes.
//
//	amgserve -addr :8080 &
//	curl -s localhost:8080/solve -d '{"rows":2,"rowptr":[0,1,2],"col":[0,1],"val":[4,4],"b":[1,2]}'
//	curl -s localhost:8080/metrics
//
// Endpoints:
//
//   - POST /solve accepts a CSR matrix with one right-hand side ("b")
//     or several ("bs") and returns the solution(s), per-column solver
//     stats, and what the request paid at the hierarchy cache ("build",
//     "refresh", "reuse", or "collision"). Repeated solves with the
//     same sparsity pattern pay only a numeric refresh; identical
//     matrices pay nothing. Each right-hand side is solved with its
//     own CG call; requests against one pattern take turns.
//     A body larger than -maxbody is answered 413, a malformed one
//     400 "bad request body: …".
//   - GET /metrics returns plaintext counters.
//   - GET /healthz is liveness: 200 for as long as the process runs.
//   - GET /readyz is readiness: 200 while accepting traffic, 503 once
//     draining.
//
// Request grammar: a /solve body is one JSON object, read whole and
// decoded in a single pass by a hand-written decoder that accepts and
// rejects exactly what encoding/json does for the same struct. Keys
// match field names under strings.EqualFold ("ROWS" is rows, "bſ" is
// bs); unknown keys are skipped, but their values must still be valid
// JSON nested at most 10000 deep. null leaves rows or cols unchanged
// and sets an array field to nil; a repeated key replaces the earlier
// value. rows, cols, rowptr and col take integers only (1.0 and 1e2 are
// rejected), col within int32; a number beyond float64's range (1e400)
// is rejected. Bytes after the object are ignored.
//
// Reply grammar: a /solve reply that carries results (200, or 422 when
// some column missed the tolerance) is one JSON object and a newline,
// written by a hand-written encoder with exactly the bytes
// encoding/json's Encoder writes for the same struct. Fields come in
// the order outcome, columns (each x, iterations, relres, converged),
// x, converged, relres, escalations, error; x, escalations and error
// are left out when empty. Floats take the shortest form that reads
// back bit for bit, in exponent form below 1e-6 and from 1e21 (1e-7,
// 1e+21), and strings are HTML-escaped (< is \u003c). A NaN or ±Inf,
// which encoding/json cannot write, is written as null, so a failed
// column still reports its error and stats. Other failures are
// plaintext.
//
// Lifecycle: on SIGTERM or SIGINT the server flips /readyz to 503,
// rejects new /solve requests with 503 + Retry-After, lets in-flight
// solves finish (bounded by -drain-timeout), then exits. Cancellation
// is honored end to end: a client that disconnects mid-solve has its
// context propagated into the CG iteration loop and AMG setup, so the
// work stops instead of running to completion for nobody.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/serve"
	"mis2go/internal/sparse"
)

// solveRequest is the JSON shape of POST /solve: a CSR matrix (cols
// defaults to rows) and one or more right-hand sides. decodeSolveRequest
// fills it; the json tags name the wire fields for the tests, which
// build bodies with json.Marshal and check the decoder against
// encoding/json.
type solveRequest struct {
	Rows   int         `json:"rows"`
	Cols   int         `json:"cols,omitempty"`
	RowPtr []int       `json:"rowptr"`
	Col    []int32     `json:"col"`
	Val    []float64   `json:"val"`
	B      []float64   `json:"b,omitempty"`
	Bs     [][]float64 `json:"bs,omitempty"`
}

// columnResult is one solved right-hand side.
type columnResult struct {
	X           []float64 `json:"x"`
	Iterations  int       `json:"iterations"`
	RelResidual float64   `json:"relres"`
	Converged   bool      `json:"converged"`
}

// solveResponse is the JSON shape of a solve that produced results.
// encodeReply writes it; the json tags name the wire fields for the
// tests, which decode replies with encoding/json and hold encodeReply
// to its Encoder.
type solveResponse struct {
	Outcome string         `json:"outcome"`
	Columns []columnResult `json:"columns"`
	// X mirrors Columns[0].X for single-RHS requests whose column
	// converged, so the common case stays a one-field read; an
	// unconverged iterate is never surfaced through the convenience
	// field.
	X []float64 `json:"x,omitempty"`
	// Converged reports every requested column met the tolerance;
	// RelResidual is the worst final relative residual across them.
	Converged   bool    `json:"converged"`
	RelResidual float64 `json:"relres"`
	// Escalations names the escalation-ladder rungs the service
	// attempted for this request (the last one listed recovered it when
	// the response is otherwise successful).
	Escalations []string `json:"escalations,omitempty"`
	// Error carries the solver error when some column did not converge;
	// the response status is then 422 and the per-column results and
	// stats are still included.
	Error string `json:"error,omitempty"`
}

// app is the HTTP layer over the solve service plus the lifecycle
// state the probes and drain sequence read.
type app struct {
	svc     *serve.Service
	maxBody int64
	// draining flips once, on the shutdown signal: /readyz goes 503 so
	// load balancers stop routing here, and new /solve admissions are
	// refused with Retry-After while in-flight work finishes.
	draining atomic.Bool
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 8, "hierarchy cache capacity (distinct sparsity patterns)")
	maxBatch := flag.Int("maxbatch", 8, "max right-hand sides one /solve request may carry")
	inflight := flag.Int("inflight", 0, "max in-flight requests, 0 = 4*GOMAXPROCS (backpressure bound)")
	maxBody := flag.Int64("maxbody", 512<<20, "max /solve request body bytes")
	tol := flag.Float64("tol", 1e-8, "relative residual tolerance")
	maxIter := flag.Int("maxiter", 500, "CG iteration cap")
	threads := flag.Int("threads", 0, "solver worker count, 0 = all cores")
	solveTimeout := flag.Duration("solve-timeout", 0, "per-request deadline covering admission, setup, and solve; expired requests return 504 (0 disables)")
	maxEscalations := flag.Int("max-escalations", 0, "escalation-ladder rungs tried after a classified numerical failure, 0 = default 2, negative disables")
	quarantineThreshold := flag.Int("quarantine-threshold", 0, "consecutive numerical failures before a pattern is quarantined (429), 0 = default 3, negative disables")
	quarantineCooldown := flag.Duration("quarantine-cooldown", 0, "base quarantine duration before a half-open probe, 0 = default 1s")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight solves after SIGTERM before forcing exit")
	flag.Parse()
	svc := serve.New(serve.Config{
		AMG:           amg.Options{Threads: *threads},
		Tol:           *tol,
		MaxIter:       *maxIter,
		CacheCapacity: *cache,
		MaxBatch:      *maxBatch,
		MaxInFlight:   *inflight,

		SolveTimeout:        *solveTimeout,
		MaxEscalations:      *maxEscalations,
		QuarantineThreshold: *quarantineThreshold,
		QuarantineCooldown:  *quarantineCooldown,
	})
	ap := &app{svc: svc, maxBody: *maxBody}
	log.Printf("amgserve listening on %s (cache %d, maxbatch %d)", *addr, *cache, *maxBatch)
	// Explicit server timeouts: a public solve endpoint must not let
	// slow or stalled clients pin connection goroutines forever (the
	// write timeout is generous — solutions for large systems are big).
	srv := &http.Server{
		Addr:              *addr,
		Handler:           ap.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	if err := run(srv, ap, sig, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}

// run serves until the listener fails or a shutdown signal arrives,
// then drains: readiness goes down first, new admissions are refused,
// and http.Server.Shutdown waits for in-flight requests up to
// drainTimeout. http.ErrServerClosed is the clean-shutdown sentinel,
// never an error. Split from main so tests can drive the sequence.
func run(srv *http.Server, ap *app, sig <-chan os.Signal, drainTimeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("amgserve: serve: %w", err)
	case s := <-sig:
		log.Printf("amgserve: %v: draining (readiness down, finishing in-flight, limit %v)", s, drainTimeout)
		ap.draining.Store(true)
		// Keep accepting connections briefly after readiness flips:
		// Shutdown closes the listener immediately, so without this
		// window load balancers see connection-refused instead of the
		// 503 + Retry-After the probes and rejections exist to provide.
		grace := 500 * time.Millisecond
		if drainTimeout < 4*grace {
			grace = drainTimeout / 4
		}
		time.Sleep(grace)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-errc; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		if err != nil {
			return fmt.Errorf("amgserve: drain: %w", err)
		}
		log.Printf("amgserve: drained cleanly")
		return nil
	}
}

// mux wires the service and lifecycle handlers.
func (ap *app) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", ap.handleSolve)
	mux.HandleFunc("/metrics", ap.handleMetrics)
	mux.HandleFunc("/healthz", ap.handleHealthz)
	mux.HandleFunc("/readyz", ap.handleReadyz)
	return mux
}

// newMux wires handlers over a service with the given body cap; split
// from main for tests. maxBody bounds the /solve request body so an
// oversized (or malicious) upload fails fast instead of buffering
// gigabytes before validation.
func newMux(svc *serve.Service, maxBody int64) *http.ServeMux {
	return (&app{svc: svc, maxBody: maxBody}).mux()
}

// retryAfter marks a response as retryable-elsewhere: drain rejections
// and backpressure/cancellation failures are transient by construction.
func retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
}

func (ap *app) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a solve request", http.StatusMethodNotAllowed)
		return
	}
	if ap.draining.Load() {
		retryAfter(w)
		http.Error(w, "amgserve: draining, not accepting new solves", http.StatusServiceUnavailable)
		return
	}
	var req solveRequest
	body, err := readBody(w, r, ap.maxBody)
	if err == nil {
		err = decodeSolveRequest(body, &req)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request body: "+err.Error(), status)
		return
	}
	a, bs, err := req.system()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	xs, stats, err := ap.svc.SolveBatch(r.Context(), a, bs)
	if err != nil && len(xs) == 0 {
		// Request-shaped failures (bad matrix, unbuildable hierarchy,
		// canceled or timed-out work) have no partial result to report.
		// Cancellation is classified from the error chain itself, not
		// from r.Context().Err(): a 422-class failure that merely races
		// a client disconnect must not be relabeled as retryable.
		status := http.StatusUnprocessableEntity
		var qe *serve.QuarantinedError
		switch {
		case errors.Is(err, serve.ErrBadRequest):
			status = http.StatusBadRequest
		case errors.As(err, &qe):
			// Quarantined pattern: the breaker rejected the request
			// before any build/solve cost. Retry-After is the time until
			// the breaker admits a half-open probe.
			secs := int(qe.RetryAfter/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			status = http.StatusTooManyRequests
		case errors.Is(err, context.DeadlineExceeded):
			// The per-request deadline (-solve-timeout or the client's
			// own) expired mid-work: a timeout, not a rejection.
			retryAfter(w)
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// Canceled admission (backpressure), a cancel during setup,
			// or a cancel that reached the iteration loop: the work was
			// cut short, not rejected — safe to retry.
			retryAfter(w)
			status = http.StatusServiceUnavailable
		}
		// Classified numerical failures (diverged, stagnated, non-finite,
		// breakdown, MaxIter exhausted) keep 422: the failure class is in
		// the error text, and retrying the same system would fail again.
		http.Error(w, err.Error(), status)
		return
	}
	resp := solveResponse{Outcome: stats.Outcome.String(),
		Converged: stats.Converged, RelResidual: stats.RelResidual,
		Escalations: stats.Escalations}
	for j, x := range xs {
		cr := columnResult{X: x}
		if j < len(stats.Columns) {
			cs := stats.Columns[j]
			cr.Iterations, cr.RelResidual, cr.Converged = cs.Iterations, cs.RelResidual, cs.Converged
		}
		resp.Columns = append(resp.Columns, cr)
	}
	if req.B != nil && len(xs) == 1 && len(resp.Columns) == 1 && resp.Columns[0].Converged {
		resp.X = xs[0]
	}
	status := http.StatusOK
	if err != nil {
		// Partial failure (some column above tolerance): report it in
		// the status line and body — a 200 with the final iterate would
		// let status-only clients mistake a non-solution for the answer.
		resp.Error = err.Error()
		status = http.StatusUnprocessableEntity
	}
	reply := encodeReply(&resp)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
	w.WriteHeader(status)
	if _, err := w.Write(reply); err != nil {
		log.Printf("amgserve: write response: %v", err)
	}
}

// system assembles the CSR matrix and RHS set. Structural validation is
// left to the service boundary (serve.SolveBatch runs Matrix.Validate
// before admission), so large matrices are scanned once, not twice.
func (req *solveRequest) system() (*sparse.Matrix, [][]float64, error) {
	if req.Cols == 0 {
		req.Cols = req.Rows
	}
	a := &sparse.Matrix{Rows: req.Rows, Cols: req.Cols, RowPtr: req.RowPtr, Col: req.Col, Val: req.Val}
	bs := req.Bs
	if req.B != nil {
		bs = append([][]float64{req.B}, bs...)
	}
	if len(bs) == 0 {
		return nil, nil, fmt.Errorf(`request carries no right-hand side (set "b" or "bs")`)
	}
	return a, bs, nil
}

func (ap *app) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := ap.svc.Metrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "amgserve_requests_total %d\n", m.Requests)
	fmt.Fprintf(w, "amgserve_rejected_total %d\n", m.Rejected)
	fmt.Fprintf(w, "amgserve_canceled_total %d\n", m.Canceled)
	fmt.Fprintf(w, "amgserve_panics_total %d\n", m.Panics)
	fmt.Fprintf(w, "amgserve_cache_builds_total %d\n", m.Builds)
	fmt.Fprintf(w, "amgserve_cache_refreshes_total %d\n", m.Refreshes)
	fmt.Fprintf(w, "amgserve_cache_hits_total %d\n", m.ValueHits)
	fmt.Fprintf(w, "amgserve_cache_collisions_total %d\n", m.Collisions)
	fmt.Fprintf(w, "amgserve_cache_evictions_total %d\n", m.Evictions)
	fmt.Fprintf(w, "amgserve_batch_solves_total %d\n", m.BatchSolves)
	fmt.Fprintf(w, "amgserve_batched_rhs_total %d\n", m.BatchedRHS)
	fmt.Fprintf(w, "amgserve_batched_rhs_ratio %.3f\n", m.BatchedRHSRatio())
	fmt.Fprintf(w, "amgserve_numerical_failures_total %d\n", m.NumericalFailures)
	fmt.Fprintf(w, "amgserve_escalations_total %d\n", m.Escalations)
	fmt.Fprintf(w, "amgserve_escalation_recoveries_total %d\n", m.EscalationRecoveries)
	fmt.Fprintf(w, "amgserve_quarantines_total %d\n", m.Quarantines)
	fmt.Fprintf(w, "amgserve_quarantine_rejections_total %d\n", m.QuarantineRejections)
	fmt.Fprintf(w, "amgserve_probes_total %d\n", m.Probes)
	fmt.Fprintf(w, "amgserve_probe_successes_total %d\n", m.ProbeSuccesses)
	fmt.Fprintf(w, "amgserve_probe_failures_total %d\n", m.ProbeFailures)
}

// handleHealthz is liveness: the process is up and serving HTTP. It
// stays 200 through a drain — restarting a draining process would cut
// off exactly the in-flight work the drain exists to protect.
func (ap *app) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting new solves, 503 once
// draining so load balancers route new traffic elsewhere.
func (ap *app) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if ap.draining.Load() {
		retryAfter(w)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
