// Command amgbench is the end-to-end and layer-by-layer benchmark of the
// MIS-2 → AMG → amgserve stack. One invocation runs one workload at
// GOMAXPROCS = all cores, checks every output, and prints one JSON result
// line last:
//
//	bash cmd/amgbench/run.sh --workload mis2-coarsen --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the same ops run again with spans around every call into a layer's
// public functions, followed by a ledger pass that times each layer on
// the workload's own system(s), and the result holds the per-layer
// metrics. Spans are written as JSON lines under -out. The layers are
// measured only from outside, through their exported API. See README.md
// for the workloads, the metrics and their measured spread.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// sizes are the problem sizes and op counts of the four workloads.
type sizes struct {
	setups  int // set-ups per run; setup_s is their median
	warmOps int // untimed ops before the timed ones (sequential workloads)

	coarsenN    int // mis2-coarsen: Laplace3D edge length
	coarsenStop int // coarsen until a level has at most this many vertices

	elasticN int // amg-cold: Elasticity3D edge length (3 dofs per point)
	stepN    int // amg-timestep: Laplace3D edge length

	hot3D, hot2D, hot27 int // serve-mixed hot patterns: Laplace3D, Laplace2D, Grid3D27 edges
	coldN, coldPatterns int // serve-mixed cold RandomFEM patterns
	poisonN             int // serve-mixed singular Laplace2D edge
	valueVariants       int // value sets per hot pattern
	rhsVariants         int // right-hand sides per value set
	warmRequests        int // serve-mixed requests before timing
	clients             int // serve-mixed connections
}

// fullSizes are the benchmark's sizes: each timed op takes 0.03-0.25 s
// on a 2-core machine, so a 20 s run collects 80 to 1000 samples.
var fullSizes = sizes{
	setups: 5, warmOps: 2,
	coarsenN: 64, coarsenStop: 1000,
	elasticN: 14,
	stepN:    40,
	hot3D:    16, hot2D: 64, hot27: 12,
	coldN: 12, coldPatterns: 8, poisonN: 16,
	valueVariants: 8, rhsVariants: 4,
	warmRequests: 30, clients: 2,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	size    sizes
	// serveBin is the amgserve binary serve-mixed starts.
	serveBin string
	// spans receives the traced run's spans (JSON lines); empty skips.
	spans string
}

func (rc *runConfig) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(rc.seed, stream))
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, rc *runConfig) (*report, error)
}

var workloads = []workload{
	{"mis2-coarsen", runCoarsen},
	{"amg-cold", runCold},
	{"amg-timestep", runTimestep},
	{"serve-mixed", runServe},
}

func main() {
	name := flag.String("workload", "", "workload: mis2-coarsen, amg-cold, amg-timestep, serve-mixed")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory holding bin/amgserve; span files are written here")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "amgbench: -trace must be 0 or 1")
		os.Exit(2)
	}

	rc := &runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		size:     fullSizes,
		serveBin: filepath.Join(*out, "bin", "amgserve"),
	}
	if rc.trace {
		rc.spans = filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
	}
	if err := run(context.Background(), os.Stdout, *name, rc); err != nil {
		fmt.Fprintln(os.Stderr, "amgbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report and result line.
func run(ctx context.Context, w io.Writer, name string, rc *runConfig) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Fprintf(w, "# amgbench %s seed=%d seconds=%v trace=%v\n", name, rc.seed, rc.seconds, rc.trace)
	fmt.Fprintf(w, "# env: %s GOMAXPROCS=%d nproc=%d revision=%s\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), revision())
	r, err := wl.run(ctx, rc)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	table := endToEnd
	if rc.trace {
		table = perLayer
		r.set("trace.op_p50_ms", r.values["op_p50_ms"])
		if rc.spans != "" {
			r.note("spans: %s", rc.spans)
		}
	}
	return r.write(w, table)
}

// revision is the VCS revision the binary was built from, when the
// build recorded one.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// selfPeakRSSMB is this process's peak resident set size (VmHWM).
func selfPeakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// runOps runs the warm-up ops, then timed ops until the run length has
// elapsed. op performs op i (negative for warm-up ops) and returns the
// duration of its timed part in ms; preparing inputs and checking
// outputs stay outside that part. Every op starts on a freshly collected
// heap, so no op pays for collecting the previous op's garbage and peak
// memory does not depend on when the collector happened to run. It
// returns the timed latencies and their sum.
func runOps(rc *runConfig, tr *tracer, op func(i int) float64) ([]float64, time.Duration) {
	for i := 0; i < rc.size.warmOps; i++ {
		tr.setTrace("warm")
		runtime.GC()
		op(-1 - i)
	}
	var lat []float64
	var sum float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < rc.seconds; i++ {
		tr.setTrace(fmt.Sprintf("op-%d", i))
		runtime.GC()
		d := op(i)
		lat = append(lat, d)
		sum += d
	}
	return lat, time.Duration(sum * float64(time.Millisecond))
}

// traceOps reports, for a traced run, each layer's self time per op and
// the share of op time the layer spans cover (the parts-sum-to-whole
// check: the rest is the benchmark's own glue).
func traceOps(r *report, lat []float64, trs ...*tracer) {
	isOp := func(trace string) bool { return strings.HasPrefix(trace, "op-") }
	var total float64
	for _, l := range lat {
		total += l
	}
	var covered float64
	self := map[string]int64{}
	for _, tr := range trs {
		covered += float64(tr.topLevelNs(isOp)) / 1e6
		for name, ns := range tr.selfNs(isOp) {
			self[name] += ns
		}
	}
	r.note("op decomposition: %.1f%% of op time inside layer spans", 100*covered/total)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.note("  self %-26s %.3fms per op", name, float64(self[name])/1e6/float64(len(lat)))
	}
}
