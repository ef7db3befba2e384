package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// span is one timed call into a layer's public function. Parent is the
// index of the enclosing span (-1 at top level); spans of one op or one
// ledger pass share a trace id.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
}

// tracer records spans in memory for one goroutine. A nil *tracer is the
// untraced run: every method is a no-op and callers skip the wrappers.
type tracer struct {
	t0    time.Time
	trace string
	spans []span
	open  []int
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// setTrace starts a new trace id for the spans that follow.
func (t *tracer) setTrace(id string) {
	if t != nil {
		t.trace = id
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Trace: t.trace})
	t.open = append(t.open, id)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// timed runs f inside a span and returns its duration in ms (the
// duration is measured whether or not t is nil).
func (t *tracer) timed(name string, f func()) float64 {
	t.begin(name)
	d := timeIt(f)
	t.end()
	return ms(d)
}

// topLevelNs sums the durations of the top-level spans (those no other
// span covers) of the traces keep selects.
func (t *tracer) topLevelNs(keep func(trace string) bool) int64 {
	var sum int64
	for _, s := range t.spans {
		if s.Parent == -1 && keep(s.Trace) {
			sum += s.End - s.Start
		}
	}
	return sum
}

// selfNs sums, per span name, each span's duration minus the part its
// child spans cover, over spans whose trace satisfies keep.
func (t *tracer) selfNs(keep func(trace string) bool) map[string]int64 {
	self := map[string]int64{}
	for _, s := range t.spans {
		if !keep(s.Trace) {
			continue
		}
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// writeSpans writes every tracer's spans to path as JSON lines; an empty
// path writes nothing.
func writeSpans(path string, tracers ...*tracer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, t := range tracers {
		for _, s := range t.spans {
			// Span ids and parents are per tracer; the tracer index makes
			// them unique in the merged file.
			rec := struct {
				span
				Tracer int `json:"tracer"`
			}{s, i}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedOp times every SpMV the Krylov solver issues against the fine
// operator. The V-cycle's own level products run inside amg and are part
// of the amg.Precondition span.
type tracedOp struct {
	sparse.Operator
	tr *tracer
}

func (o tracedOp) SpMV(rt *par.Runtime, x, y []float64) {
	o.tr.begin("sparse.SpMV")
	o.Operator.SpMV(rt, x, y)
	o.tr.end()
}

// tracedPrec times every V-cycle.
type tracedPrec struct {
	h  *amg.Hierarchy
	tr *tracer
}

func (p tracedPrec) Precondition(r, z []float64) {
	p.tr.begin("amg.Precondition")
	p.h.Precondition(r, z)
	p.tr.end()
}
