package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mis2go/internal/gen"
	"mis2go/internal/serve"
	"mis2go/internal/sparse"
)

// reqKind is the role of one serve-mixed request in the traffic mix.
type reqKind int

const (
	kindReuse   reqKind = iota // a hot pattern's current values again: a value hit
	kindRefresh                // new values on a hot pattern: a refresh
	kindMulti                  // four right-hand sides on a hot pattern's current values
	kindCold                   // one of the cold patterns, which outnumber the cache
	kindPoison                 // a singular Laplacian no solver can satisfy
)

var kindNames = [...]string{"reuse", "refresh", "multi", "cold", "poison"}

// mixBlock is 20 requests of the serve-mixed mix: 35% exact repeats, 30%
// new values, 15% four right-hand sides, 15% cold patterns, 5% poison.
var mixBlock = [20]reqKind{
	kindReuse, kindReuse, kindReuse, kindReuse, kindReuse, kindReuse, kindReuse,
	kindRefresh, kindRefresh, kindRefresh, kindRefresh, kindRefresh, kindRefresh,
	kindMulti, kindMulti, kindMulti,
	kindCold, kindCold, kindCold,
	kindPoison,
}

// body is one distinct request: its system and its encoded JSON.
type body struct {
	a      *sparse.Matrix
	bs     [][]float64
	poison bool
	json   []byte
}

// solveRequest is the JSON shape of amgserve's POST /solve.
type solveRequest struct {
	Rows   int         `json:"rows"`
	RowPtr []int       `json:"rowptr"`
	Col    []int32     `json:"col"`
	Val    []float64   `json:"val"`
	B      []float64   `json:"b,omitempty"`
	Bs     [][]float64 `json:"bs,omitempty"`
}

// traffic is the seeded request sequence of serve-mixed and the
// distinct bodies it draws from, all encoded before timing.
type traffic struct {
	bodies []*body
	seq    []int // body index of each request
	kinds  []reqKind
	// systems holds one system per distinct healthy pattern, for the
	// ledger pass.
	systems []system
}

// newTraffic generates n requests in the mix of mixBlock. The seed
// drives the order, the hot pattern of each request, the values and
// right-hand sides, and the cold patterns.
func newTraffic(sz sizes, seed uint64, n int) (*traffic, error) {
	rng := rand.New(rand.NewPCG(seed, 10))
	hot := []*sparse.Matrix{
		gen.Laplacian(gen.Laplace3D(sz.hot3D, sz.hot3D, sz.hot3D), 1e-4),
		gen.Laplacian(gen.Laplace2D(sz.hot2D, sz.hot2D), 1e-4),
		gen.Laplacian(gen.Grid3D27(sz.hot27, sz.hot27, sz.hot27), 1e-4),
	}
	// rhs[p][r] is right-hand side r of hot pattern p.
	rhs := make([][][]float64, len(hot))
	for p, a := range hot {
		for r := 0; r < sz.rhsVariants; r++ {
			rhs[p] = append(rhs[p], randomVector(rand.New(rand.NewPCG(seed, uint64(100+p*sz.rhsVariants+r))), a.Rows))
		}
	}
	cold := func(k int) *body {
		c := sz.coldN
		// RandomFEM ignores its seed's lowest bit; vary the bits above it.
		a := gen.Laplacian(gen.RandomFEM(c, c, c, 12, seed<<16+uint64(k)<<1), 1e-2)
		return &body{a: a, bs: [][]float64{randomVector(rand.New(rand.NewPCG(seed, uint64(200+k))), a.Rows)}}
	}
	poison := func() *body {
		a := gen.Laplacian(gen.Laplace2D(sz.poisonN, sz.poisonN), 0)
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1 // not orthogonal to the constant null space: no solution exists
		}
		return &body{a: a, bs: [][]float64{b}, poison: true}
	}

	// A body is keyed by its shape (0 one right-hand side on a hot
	// pattern, 1 four of them, 2 a cold pattern, 3 poison), the hot or
	// cold pattern p, the value set v and the right-hand side r. Repeats
	// and refreshes share shape 0: a refresh's body is what later repeats
	// send again.
	type key struct{ shape, p, v, r int }
	t := &traffic{}
	index := map[key]int{}
	values := map[[2]int]*sparse.Matrix{}
	variant := func(p, v int) *sparse.Matrix {
		if a, ok := values[[2]int{p, v}]; ok {
			return a
		}
		a := valueVariant(hot[p], v)
		values[[2]int{p, v}] = a
		return a
	}
	var colds []system
	cur := make([]int, len(hot)) // value set each hot pattern holds, in sequence order
	var block []reqKind
	for i := 0; i < n; i++ {
		// Every block of 20 requests holds the mix exactly, shuffled, so
		// the share of each kind does not vary with the seed.
		if len(block) == 0 {
			block = slices.Clone(mixBlock[:])
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[0]
		block = block[1:]
		p := rng.IntN(len(hot))
		var k key
		switch kind {
		case kindReuse:
			k = key{0, p, cur[p], rng.IntN(sz.rhsVariants)}
		case kindRefresh:
			cur[p] = (cur[p] + 1 + rng.IntN(sz.valueVariants-1)) % sz.valueVariants
			k = key{0, p, cur[p], rng.IntN(sz.rhsVariants)}
		case kindMulti:
			k = key{1, p, cur[p], 0}
		case kindCold:
			k = key{2, rng.IntN(sz.coldPatterns), 0, 0}
		default:
			k = key{3, 0, 0, 0}
		}
		idx, ok := index[k]
		if !ok {
			var b *body
			switch k.shape {
			case 0:
				b = &body{a: variant(k.p, k.v), bs: [][]float64{rhs[k.p][k.r]}}
			case 1:
				b = &body{a: variant(k.p, k.v), bs: rhs[k.p]}
			case 2:
				b = cold(k.p)
				colds = append(colds, system{b.a, b.bs[0]})
			default:
				b = poison()
			}
			idx = len(t.bodies)
			index[k] = idx
			t.bodies = append(t.bodies, b)
		}
		t.seq = append(t.seq, idx)
		t.kinds = append(t.kinds, kind)
	}
	for p, a := range hot {
		t.systems = append(t.systems, system{a, rhs[p][0]})
	}
	t.systems = append(t.systems, colds...)
	for _, b := range t.bodies {
		req := solveRequest{Rows: b.a.Rows, RowPtr: b.a.RowPtr, Col: b.a.Col, Val: b.a.Val}
		if len(b.bs) == 1 {
			req.B = b.bs[0]
		} else {
			req.Bs = b.bs
		}
		var err error
		if b.json, err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// valueVariant returns base's pattern with values s*base + d*I, s = 1 +
// v/8, d = v/16: SPD whenever base is, and short in JSON.
func valueVariant(base *sparse.Matrix, v int) *sparse.Matrix {
	s, d := 1+float64(v)/8, float64(v)/16
	a := &sparse.Matrix{Rows: base.Rows, Cols: base.Cols, RowPtr: base.RowPtr, Col: base.Col, Val: make([]float64, len(base.Val))}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			a.Val[p] = s * base.Val[p]
			if int(a.Col[p]) == i {
				a.Val[p] += d
			}
		}
	}
	return a
}

// sample is one completed request.
type sample struct {
	idx     int
	ms      float64
	outcome string // cache outcome, or "poison"
	err     error  // why the reply failed its check
}

// closedLoop sends requests from index from up to (not including) to on
// clients goroutines; each sends its next request only after its
// previous reply. With d > 0 it also stops once d has elapsed. It
// returns the samples and the wall time.
func closedLoop(clients, from, to int, d time.Duration, do func(client, i int) sample) ([]sample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(from))
	per := make([][]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d <= 0 || time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				per[c] = append(per[c], do(c, i))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, wall
}

// replies remembers, per request body, the digest of the solution part
// of its first healthy reply and that reply itself.
type replies struct {
	mu     sync.Mutex
	digest map[int][32]byte
	first  map[int][]byte
}

func newReplies() *replies {
	return &replies{digest: map[int][32]byte{}, first: map[int][]byte{}}
}

// observe records a healthy reply to body and fails when an earlier
// reply to the same body carried a different solution.
func (r *replies) observe(body int, digest [32]byte, reply []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.digest[body]
	if !ok {
		r.digest[body] = digest
		r.first[body] = reply
		return nil
	}
	if d != digest {
		return fmt.Errorf("body %d: reply digest %x differs from the first reply's %x", body, digest[:6], d[:6])
	}
	return nil
}

// checkReply checks one /solve reply. A poison request must be refused
// with 422 (classified failure) or 429 (quarantined); a healthy one must
// return 200, converged, with relres at most tol. For a healthy reply it
// returns the cache outcome and the SHA-256 of the body from "columns"
// onward — the solution part, which must not depend on the outcome.
func checkReply(poison bool, status int, reply []byte) (string, [32]byte, error) {
	var digest [32]byte
	if poison {
		if status != http.StatusUnprocessableEntity && status != http.StatusTooManyRequests {
			return "", digest, fmt.Errorf("poison request answered %d", status)
		}
		return "poison", digest, nil
	}
	if status != http.StatusOK {
		return "", digest, fmt.Errorf("healthy request answered %d: %.200s", status, reply)
	}
	outcome, ok := stringField(reply, "outcome")
	ci := bytes.Index(reply, []byte(`"columns"`))
	if !ok || ci < 0 {
		return "", digest, fmt.Errorf("malformed reply: %.200s", reply)
	}
	digest = sha256.Sum256(reply[ci:])
	// The request-level fields follow the columns, so the last
	// occurrence of each name is the top-level one.
	conv := lastValue(reply, "converged")
	relres, err := strconv.ParseFloat(lastValue(reply, "relres"), 64)
	if conv != "true" || err != nil || !(relres <= tol) {
		return outcome, digest, fmt.Errorf("reply not a solution: converged=%s relres=%s", conv, lastValue(reply, "relres"))
	}
	return outcome, digest, nil
}

// stringField extracts the first "name":"value" string field.
func stringField(b []byte, name string) (string, bool) {
	key := []byte(`"` + name + `":"`)
	i := bytes.Index(b, key)
	if i < 0 {
		return "", false
	}
	rest := b[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return string(rest[:j]), true
}

// lastValue returns the raw scalar after the last "name": in b.
func lastValue(b []byte, name string) string {
	key := []byte(`"` + name + `":`)
	i := bytes.LastIndex(b, key)
	if i < 0 {
		return ""
	}
	rest := b[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// checkFullReply decodes a healthy reply and recomputes every column's
// true residual against the request's own system.
func checkFullReply(b *body, reply []byte) error {
	var resp struct {
		Columns []struct {
			X []float64 `json:"x"`
		} `json:"columns"`
	}
	if err := json.Unmarshal(reply, &resp); err != nil {
		return err
	}
	if len(resp.Columns) != len(b.bs) {
		return fmt.Errorf("%d columns for %d right-hand sides", len(resp.Columns), len(b.bs))
	}
	for j, col := range resp.Columns {
		if len(col.X) != b.a.Rows {
			return fmt.Errorf("column %d has %d entries for %d rows", j, len(col.X), b.a.Rows)
		}
		if rr := relResidual(b.a, b.bs[j], col.X); !(rr <= tol) {
			return fmt.Errorf("column %d: true relres %.3e above tol", j, rr)
		}
	}
	return nil
}

// scrape reads amgserve's plaintext counters.
func scrape(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m, sc.Err()
}

// maxRequests bounds the generated sequence; a run that reaches it ends
// its timed phase early.
const maxRequests = 50000

// runServe is serve-mixed: a real amgserve binary driven over loopback
// by a closed loop of clients (solver clients wait for each reply), with
// a traffic mix whose 12 distinct patterns outnumber the 8-entry cache.
func runServe(ctx context.Context, rc *runConfig) (*report, error) {
	r := newReport()
	sz := rc.size
	transport := &http.Transport{MaxConnsPerHost: sz.clients, MaxIdleConnsPerHost: sz.clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	// Set-up: generate and encode the traffic, start the server, wait
	// for readiness. Repeated; the last server carries the run.
	var t *traffic
	var srv *server
	setups := make([]float64, sz.setups)
	for k := range setups {
		if srv != nil {
			_, err := srv.stop()
			r.checks.checkErr(err, "amgserve SIGTERM drain")
		}
		var err error
		runtime.GC()
		start := time.Now()
		if t, err = newTraffic(sz, rc.seed, maxRequests); err != nil {
			return nil, err
		}
		if srv, err = startServer(ctx, rc.serveBin, client); err != nil {
			return nil, err
		}
		setups[k] = time.Since(start).Seconds()
	}
	r.set("setup_s", median(setups))
	r.note("traffic: %d distinct bodies, %d clients, closed loop", len(t.bodies), sz.clients)

	if err := driveServer(ctx, r, rc, t, srv, client); err != nil {
		srv.kill()
		return nil, srv.failure(err)
	}
	// A drain that does not exit 0 is the server's failure, not the
	// benchmark's: count it and report what the process used.
	rss, err := srv.stop()
	r.checks.checkErr(err, "amgserve SIGTERM drain")
	r.set("peak_rss_mb", rss)
	return r, nil
}

// driveServer runs the warm pass and the timed closed loop against srv,
// checks every reply, and in a traced run replays the same sequence in
// process and runs the ledger over the distinct healthy systems.
func driveServer(ctx context.Context, r *report, rc *runConfig, t *traffic, srv *server, client *http.Client) error {
	sz := rc.size
	var tracers []*tracer
	if rc.trace {
		t0 := time.Now()
		for c := 0; c < sz.clients; c++ {
			tracers = append(tracers, newTracer(t0))
		}
	}
	seen := newReplies()
	post := func(c, i int) sample {
		bi := t.seq[i]
		b := t.bodies[bi]
		var tr *tracer
		if tracers != nil {
			// Only timed healthy requests are ops; the others get their
			// own trace ids so the op decomposition leaves them out.
			tr = tracers[c]
			switch {
			case i < sz.warmRequests:
				tr.setTrace(fmt.Sprintf("warm-%d", i))
			case b.poison:
				tr.setTrace(fmt.Sprintf("poison-%d", i))
			default:
				tr.setTrace(fmt.Sprintf("op-%d", i))
			}
		}
		start := time.Now()
		tr.begin("amgserve.POST/solve")
		status, reply, err := postSolve(ctx, client, srv.base, b.json)
		tr.end()
		lat := ms(time.Since(start))
		s := sample{idx: i, ms: lat}
		if err == nil {
			var digest [32]byte
			s.outcome, digest, err = checkReply(b.poison, status, reply)
			if err == nil && !b.poison {
				err = seen.observe(bi, digest, reply)
			}
		}
		s.err = err
		return s
	}

	warm, _ := closedLoop(sz.clients, 0, sz.warmRequests, 0, post)
	before, err := scrape(ctx, client, srv.base)
	if err != nil {
		return err
	}
	timed, wall := closedLoop(sz.clients, sz.warmRequests, len(t.seq), rc.seconds, post)
	after, err := scrape(ctx, client, srv.base)
	if err != nil {
		return err
	}
	for _, s := range append(warm, timed...) {
		r.checks.checkErr(s.err, fmt.Sprintf("request %d (%s)", s.idx, kindNames[t.kinds[s.idx]]))
	}
	var lat []float64
	byOutcome := map[string][]float64{}
	end := sz.warmRequests
	for _, s := range timed {
		end = max(end, s.idx+1)
		if s.err != nil {
			continue
		}
		key := s.outcome
		if t.kinds[s.idx] == kindMulti {
			key = "multi"
		}
		byOutcome[key] = append(byOutcome[key], s.ms)
		if key != "poison" {
			lat = append(lat, s.ms)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no healthy request completed")
	}
	r.setOpStats(lat, wall)
	for _, k := range []string{"build", "refresh", "reuse", "multi", "poison"} {
		r.note("http %-7s n=%-4d p50 %.3fms", k, len(byOutcome[k]), median(byOutcome[k]))
	}
	delta := func(name string) float64 { return after["amgserve_"+name] - before["amgserve_"+name] }
	r.note("/metrics deltas: requests %.0f builds %.0f refreshes %.0f hits %.0f evictions %.0f quarantines %.0f quarantine_rejections %.0f probes %.0f escalations %.0f batched_rhs/solve %.3f",
		delta("requests_total"), delta("cache_builds_total"), delta("cache_refreshes_total"), delta("cache_hits_total"),
		delta("cache_evictions_total"), delta("quarantines_total"), delta("quarantine_rejections_total"),
		delta("probes_total"), delta("escalations_total"), delta("batched_rhs_total")/max(delta("batch_solves_total"), 1))

	// One full reply per distinct healthy body, decoded and
	// residual-checked against the request's own system.
	for bi, reply := range seen.first {
		r.checks.checkErr(checkFullReply(t.bodies[bi], reply), fmt.Sprintf("full reply to body %d", bi))
	}

	if !rc.trace {
		return nil
	}
	traceOps(r, lat, tracers...)
	replayTracers := replay(r, t, sz, end, median(lat))
	l := &ledger{tr: newTracer(time.Now())}
	if err := l.run(t.systems, false); err != nil {
		return err
	}
	l.report(r)
	return writeSpans(rc.spans, append(append(tracers, replayTracers...), l.tr)...)
}

// replay sends the same request sequence, warm pass included, through
// an in-process serve.Service configured like amgserve's defaults, with
// the same number of clients. It sets the per-outcome serve latencies
// and the cache's useful ratio, and reports the HTTP layer's share of
// the median healthy request.
func replay(r *report, t *traffic, sz sizes, end int, httpP50 float64) []*tracer {
	svc := serve.New(serve.Config{CacheCapacity: 8})
	t0 := time.Now()
	tracers := make([]*tracer, sz.clients)
	for c := range tracers {
		tracers[c] = newTracer(t0)
	}
	do := func(c, i int) sample {
		b := t.bodies[t.seq[i]]
		tr := tracers[c]
		tr.setTrace(fmt.Sprintf("replay-%d", i))
		var st serve.RequestStats
		var err error
		lat := tr.timed("serve.SolveBatch", func() {
			_, st, err = svc.SolveBatch(context.Background(), b.a, b.bs)
		})
		s := sample{idx: i, ms: lat, outcome: st.Outcome.String()}
		switch {
		case b.poison:
			s.outcome = "poison"
			if err == nil {
				s.err = fmt.Errorf("poison request solved")
			}
		case err != nil:
			s.err = err
		case !st.Converged || !(st.RelResidual <= tol):
			s.err = fmt.Errorf("not a solution: converged=%v relres %.3e", st.Converged, st.RelResidual)
		}
		return s
	}
	closedLoop(sz.clients, 0, sz.warmRequests, 0, do)
	m0 := svc.Metrics()
	timed, _ := closedLoop(sz.clients, sz.warmRequests, end, 0, do)
	m1 := svc.Metrics()
	byOutcome := map[string][]float64{}
	var healthy []float64
	for _, s := range timed {
		r.checks.checkErr(s.err, fmt.Sprintf("in-process replay of request %d", s.idx))
		byOutcome[s.outcome] = append(byOutcome[s.outcome], s.ms)
		if s.outcome != "poison" {
			healthy = append(healthy, s.ms)
		}
	}
	r.set("serve.build_ms", median(byOutcome["build"]))
	r.set("serve.refresh_ms", median(byOutcome["refresh"]))
	r.set("serve.reuse_ms", median(byOutcome["reuse"]))
	r.set("serve.cache_useful_ratio", float64(m1.Refreshes-m0.Refreshes+m1.ValueHits-m0.ValueHits)/float64(m1.Requests-m0.Requests))
	inproc := median(healthy)
	r.note("in-process replay: %d requests, healthy p50 %.3fms; HTTP overhead at p50 %.3fms (%.1f%%)",
		len(timed), inproc, httpP50-inproc, 100*(httpP50-inproc)/httpP50)
	return tracers
}

// postSolve sends one pre-encoded body and reads the whole reply; the
// caller's timer spans from the write to the last reply byte.
func postSolve(ctx context.Context, client *http.Client, base string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/solve", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}
