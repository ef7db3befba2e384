package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// syncBuffer collects a child's stderr while the child runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// server is a running amgserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr syncBuffer
	done   chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after done
}

// startServer starts amgserve with default flags and an 8-entry cache
// on a free loopback port and waits until /readyz answers 200.
func startServer(ctx context.Context, bin string, client *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://127.0.0.1:" + port, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+port, "-cache", "8")
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even if the benchmark
	// is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start amgserve: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if err != nil {
			s.kill()
			return nil, err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, s.failure(fmt.Errorf("amgserve exited before it was ready: %v", s.err))
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, s.failure(fmt.Errorf("amgserve not ready after 20s"))
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// failure attaches the tail of the server's stderr to err.
func (s *server) failure(err error) error {
	log := s.stderr.String()
	if len(log) > 4000 {
		log = log[len(log)-4000:]
	}
	return fmt.Errorf("%w\namgserve stderr:\n%s", err, strings.TrimSpace(log))
}

// kill stops the server without a drain and waits for it to exit.
func (s *server) kill() {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Kill()
		<-s.done
	}
}

// stop sends SIGTERM, waits for the drain, and requires exit status 0.
// The process has exited when stop returns; the result is its peak
// resident set size in MB.
func (s *server) stop() (float64, error) {
	var err error
	if serr := s.cmd.Process.Signal(syscall.SIGTERM); serr != nil {
		s.kill()
		err = fmt.Errorf("signal amgserve: %w", serr)
	} else {
		select {
		case <-s.done:
			if s.err != nil {
				err = fmt.Errorf("amgserve drain: %w", s.err)
			}
		case <-time.After(60 * time.Second):
			s.kill()
			err = fmt.Errorf("amgserve did not drain within 60s")
		}
	}
	var rss float64
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rss, s.failure(err)
	}
	return rss, nil
}
