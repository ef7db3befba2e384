package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// metric names one reported number. The two tables below are the
// benchmark's contract: BENCHMARK.json lists the same names, units and
// directions (the package test holds them equal), every workload reports
// every end-to-end metric in an untraced run and every per-layer metric
// in a traced run.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the numbers a user of the library or the service sees.
// An op is one multilevel coarsening (mis2-coarsen), one cold build plus
// solve (amg-cold), one refresh plus solve (amg-timestep), or one
// healthy HTTP solve request (serve-mixed).
var endToEnd = []metric{
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are measured by the traced run: the ledger pass times each
// layer's public entry points on the workload's own system(s), the
// in-process serve requests give the serve numbers, and trace.op_p50_ms
// is op_p50_ms with spans on (their ratio is the tracing overhead).
var perLayer = []metric{
	{"graph.extract_ms", "ms", "lower"},
	{"mis.time_ms", "ms", "lower"},
	{"mis.ns_per_edge", "ns", "lower"},
	{"mis.rounds", "count", "lower"},
	{"mis.worklist_visits", "count", "lower"},
	{"mis.bell_ratio", "ratio", "higher"},
	{"mis.speedup_1_to_N", "ratio", "higher"},
	{"coarsen.agg_self_ms", "ms", "lower"},
	{"graph.coarse_graph_ms", "ms", "lower"},
	{"sparse.plan_smooth_ms", "ms", "lower"},
	{"sparse.plan_transpose_ms", "ms", "lower"},
	{"sparse.plan_rap_ms", "ms", "lower"},
	{"sparse.operator_ms", "ms", "lower"},
	{"sparse.dense_factor_ms", "ms", "lower"},
	{"amg.symbolic_ms", "ms", "lower"},
	{"amg.numeric_ms", "ms", "lower"},
	{"amg.refresh_ms", "ms", "lower"},
	{"amg.setup_unattributed_frac", "ratio", "lower"},
	{"amg.setup_speedup_1_to_N", "ratio", "higher"},
	{"amg.levels", "count", "lower"},
	{"amg.op_complexity", "ratio", "lower"},
	{"amg.vcycle_ms", "ms", "lower"},
	{"sparse.spmv_ms", "ms", "lower"},
	{"sparse.spmv_gbps_computed", "GB/s", "higher"},
	{"krylov.cg_self_ms", "ms", "lower"},
	{"krylov.cg_iters", "count", "lower"},
	{"serve.build_ms", "ms", "lower"},
	{"serve.refresh_ms", "ms", "lower"},
	{"serve.reuse_ms", "ms", "lower"},
	{"serve.cache_useful_ratio", "ratio", "higher"},
	{"trace.op_p50_ms", "ms", "lower"},
}

// checker counts attempted and failed correctness checks. Every op is
// one attempt; so is every whole-run check (determinism, refresh versus
// fresh build). The first few failure messages are kept for the report.
type checker struct {
	attempted, failed int
	msgs              []string
}

// check records one attempt and reports whether it passed.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 10 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// checkErr records one attempt that passes when err is nil.
func (c *checker) checkErr(err error, what string) bool {
	if err != nil {
		return c.check(false, "%s: %v", what, err)
	}
	return c.check(true, "")
}

// report is what one workload run produced.
type report struct {
	checks checker
	values map[string]float64
	// lines are human-readable details printed before the result line.
	lines []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the details and then the result line: the metrics of the
// given table, each of which the run must have measured.
func (r *report) write(w io.Writer, table []metric) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, "#", l)
	}
	for _, m := range r.checks.msgs {
		fmt.Fprintln(w, "# check failed:", m)
	}
	out := resultLine{
		Correct:   r.checks.failed == 0 && r.checks.attempted > 0,
		Attempted: r.checks.attempted,
		Failed:    r.checks.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range table {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeIt returns how long f took.
func timeIt(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// setupSeconds runs the set-up f k times, each on a freshly collected
// heap so one repetition's garbage does not slow the next, and returns
// the median duration in seconds. The last repetition's state is kept.
func setupSeconds(k int, f func()) float64 {
	ts := make([]float64, k)
	for i := range ts {
		runtime.GC()
		ts[i] = timeIt(f).Seconds()
	}
	return median(ts)
}

// setOpStats fills the end-to-end op metrics from per-op latencies (ms)
// and the time those ops took (the timed sum for sequential workloads,
// the wall time for concurrent ones).
func (r *report) setOpStats(lat []float64, elapsed time.Duration) {
	r.set("op_p50_ms", median(lat))
	r.set("op_p90_ms", quantile(lat, 0.9))
	r.set("ops_per_s", float64(len(lat))/elapsed.Seconds())
	r.note("ops: n=%d p50=%.3fms p90=%.3fms max=%.3fms", len(lat), median(lat), quantile(lat, 0.9), quantile(lat, 1))
}
