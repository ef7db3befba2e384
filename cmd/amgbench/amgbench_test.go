package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/krylov"
	"mis2go/internal/mis"
)

// tinySizes run every workload in a fraction of a second. Eight cold
// patterns keep the cache under eviction pressure, so the in-process
// replay sees builds, refreshes and reuses.
var tinySizes = sizes{
	setups: 1, warmOps: 1,
	coarsenN: 10, coarsenStop: 50,
	elasticN: 3,
	stepN:    8,
	hot3D:    5, hot2D: 10, hot27: 4,
	coldN: 4, coldPatterns: 8, poisonN: 6,
	valueVariants: 3, rhsVariants: 2,
	warmRequests: 5, clients: 2,
}

// TestWorkloadsReportEveryMetric runs all four workloads at tiny sizes,
// untraced and traced, against a freshly built amgserve, and requires
// every output check to pass and every metric BENCHMARK.json names to
// be printed with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "amgserve")
	if out, err := exec.Command("go", "build", "-o", bin, "mis2go/cmd/amgserve").CombinedOutput(); err != nil {
		t.Fatalf("build amgserve: %v\n%s", err, out)
	}
	spec := readSpec(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rc := &runConfig{seed: 7, seconds: 200 * time.Millisecond, trace: traced, size: tinySizes, serveBin: bin}
			table := spec.EndToEnd
			if traced {
				rc.spans = filepath.Join(dir, wl.name+".jsonl")
				table = spec.PerLayer
			}
			var out bytes.Buffer
			if err := run(context.Background(), &out, wl.name, rc); err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not a result: %v\n%s", wl.name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", wl.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", wl.name, traced, len(res.Metrics), len(table))
			}
			for _, m := range table {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %s", wl.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced {
				if st, err := os.Stat(rc.spans); err != nil || st.Size() == 0 {
					t.Errorf("%s: no spans written: %v", wl.name, err)
				}
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's metric
// tables and workload list equal.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, program %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads in BENCHMARK.json %v, program %v", names, want)
	}
}

// TestCheckersCountBrokenOutputs feeds each checker a deliberately
// broken output and requires it to be counted as a failure, so no
// checker can pass silently.
func TestCheckersCountBrokenOutputs(t *testing.T) {
	// Dropping one member of a MIS-2 leaves a set that is not maximal.
	g := gen.Laplace3D(6, 6, 6)
	set := mis.MIS2(g, mis.Options{}).InSet
	agg := coarsen.MIS2Aggregation(g, coarsen.Options{})
	var c checker
	checkLevels(&c, []*graph.CSR{g}, []coarsen.Aggregation{agg}, [][]int32{set})
	if c.failed != 0 {
		t.Fatalf("valid level counted as failed: %v", c.msgs)
	}
	checkLevels(&c, []*graph.CSR{g}, []coarsen.Aggregation{agg}, [][]int32{set[1:]})
	if c.failed != 1 {
		t.Errorf("non-maximal MIS-2: %d failures counted, want 1", c.failed)
	}

	// A solve whose iterate is not a solution.
	a := gen.Laplacian(g, 1e-2)
	b := make([]float64, a.Rows)
	b[0] = 1
	c = checker{}
	checkSolve(&c, "zero iterate", a, b, make([]float64, a.Rows), krylov.Stats{Converged: true}, nil)
	if c.failed != 1 {
		t.Errorf("wrong solution: %d failures counted, want 1", c.failed)
	}

	// Two replies to one body whose solution parts differ.
	reply := []byte(`{"outcome":"build","batched":1,"precision":"f64","columns":[{"x":[0.5],"iterations":3,"relres":1e-9,"converged":true}],"x":[0.5],"converged":true,"relres":1e-9}`)
	tampered := bytes.Replace(reply, []byte(`[0.5]`), []byte(`[0.25]`), 1)
	outcome, d1, err := checkReply(false, 200, reply)
	if err != nil || outcome != "build" {
		t.Fatalf("valid reply: outcome %q, %v", outcome, err)
	}
	_, d2, err := checkReply(false, 200, tampered)
	if err != nil {
		t.Fatalf("tampered reply is still well-formed: %v", err)
	}
	seen := newReplies()
	c = checker{}
	c.checkErr(seen.observe(3, d1, reply), "first reply")
	c.checkErr(seen.observe(3, d1, reply), "identical reply")
	c.checkErr(seen.observe(3, d2, tampered), "tampered reply")
	if c.failed != 1 {
		t.Errorf("tampered digest: %d failures counted, want 1", c.failed)
	}
	if d1 != sha256.Sum256(reply[bytes.Index(reply, []byte(`"columns"`)):]) {
		t.Error("digest does not cover the reply from \"columns\" onward")
	}

	// A poison request answered 200, and healthy replies that are not
	// solutions.
	c = checker{}
	for _, tc := range []struct {
		poison bool
		status int
		reply  []byte
	}{
		{true, 200, reply},
		{false, 422, reply},
		{false, 200, bytes.Replace(reply, []byte(`"converged":true,"relres":1e-9}`), []byte(`"converged":false,"relres":1e-9}`), 1)},
		{false, 200, bytes.Replace(reply, []byte(`"relres":1e-9}`), []byte(`"relres":1e-6}`), 1)},
	} {
		_, _, err := checkReply(tc.poison, tc.status, tc.reply)
		c.checkErr(err, "broken reply")
	}
	if c.failed != 4 {
		t.Errorf("broken replies: %d failures counted, want 4 (%v)", c.failed, c.msgs)
	}
	for _, status := range []int{422, 429} {
		if _, _, err := checkReply(true, status, nil); err != nil {
			t.Errorf("poison answered %d rejected: %v", status, err)
		}
	}
}
