// Lifecycle tests: probes, drain rejection, cancellation status
// mapping, and the signal-driven run/drain sequence.
package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"syscall"
	"testing"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/serve"
)

func testApp(t *testing.T) (*app, *httptest.Server) {
	t.Helper()
	svc := serve.New(serve.Config{
		AMG:     amg.Options{MinCoarseSize: 30},
		Tol:     1e-10,
		MaxIter: 200,
	})
	ap := &app{svc: svc, maxBody: 64 << 20}
	ts := httptest.NewServer(ap.mux())
	t.Cleanup(ts.Close)
	return ap, ts
}

func getStatus(t *testing.T, url string) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

func TestProbesFlipOnDrain(t *testing.T) {
	ap, ts := testApp(t)

	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz %d, want 200", code)
	}
	if code, _ := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz %d, want 200", code)
	}

	ap.draining.Store(true)

	// Liveness must hold through a drain — a restart now would kill the
	// in-flight work the drain is protecting.
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("draining healthz %d, want 200", code)
	}
	code, hdr := getStatus(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining readyz has no Retry-After")
	}
}

func TestDrainRejectsNewSolves(t *testing.T) {
	ap, ts := testApp(t)
	body, _ := laplaceRequest(t, 1)

	// Before the drain the same request succeeds...
	postSolve(t, ts, body)

	ap.draining.Store(true)
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining solve %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining solve rejection has no Retry-After")
	}
}

// TestCancellationMapsToRetryable503: a solve whose failure chain
// carries context cancellation (here: a canceled admission or build,
// injected through the fault hook) is a retryable 503 with Retry-After
// — classified from the error itself, not from the request context.
func TestCancellationMapsToRetryable503(t *testing.T) {
	svc := serve.New(serve.Config{
		AMG:     amg.Options{MinCoarseSize: 30},
		Tol:     1e-10,
		MaxIter: 200,
		FaultHook: func(p serve.FaultPhase, ctx context.Context) error {
			if p == serve.FaultBuild {
				return fmt.Errorf("injected cancel: %w", context.Canceled)
			}
			return nil
		},
	})
	ap := &app{svc: svc, maxBody: 64 << 20}
	ts := httptest.NewServer(ap.mux())
	t.Cleanup(ts.Close)

	body, _ := laplaceRequest(t, 1)
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("canceled solve %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("canceled solve has no Retry-After")
	}
}

// TestRunDrainsOnSignal drives the run() sequence end to end: serve,
// receive a signal, flip readiness, shut down, and come back clean
// (http.ErrServerClosed is not an error).
func TestRunDrainsOnSignal(t *testing.T) {
	svc := serve.New(serve.Config{
		AMG:     amg.Options{MinCoarseSize: 30},
		Tol:     1e-10,
		MaxIter: 200,
	})
	ap := &app{svc: svc, maxBody: 64 << 20}
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: ap.mux()}
	sig := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(srv, ap, sig, 5*time.Second) }()

	// Give ListenAndServe a moment to bind, then signal.
	time.Sleep(50 * time.Millisecond)
	sig <- syscall.SIGTERM
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	if !ap.draining.Load() {
		t.Fatal("drain did not flip readiness")
	}
}

// TestRunReportsListenFailure: a bind failure surfaces as an error, it
// is not swallowed by the clean-shutdown path.
func TestRunReportsListenFailure(t *testing.T) {
	ap := &app{svc: serve.New(serve.Config{}), maxBody: 1}
	srv := &http.Server{Addr: "127.0.0.1:-1", Handler: ap.mux()}
	sig := make(chan os.Signal, 1)
	if err := run(srv, ap, sig, time.Second); err == nil {
		t.Fatal("run with an unbindable address returned nil")
	}
}
