package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/pipeline"
)

// span is one benchmark-side span: a call from the benchmark into a public
// function of the system under test, or the operation (request) that made
// it. Times are nanoseconds since the process's trace epoch.
type span struct {
	ID     int64
	Parent int64 // 0 = root of its request
	Req    int64 // request id shared by all spans of one operation
	Name   string
	Start  int64
	End    int64
}

var (
	traceEpoch = time.Now()
	spanIDs    atomic.Int64
)

func sinceEpoch() int64 { return time.Since(traceEpoch).Nanoseconds() }

// client is the recording state of one load goroutine for one block. It is
// not safe for concurrent use; each goroutine owns one and merges it into
// the block's recorder when done.
type client struct {
	lat       map[string][]time.Duration
	spans     []span
	attempted int
	failed    int
	firstErr  error
	traced    bool
}

func (c *client) observe(class string, d time.Duration) {
	c.lat[class] = append(c.lat[class], d)
}

// fail counts a failed operation; the first error is kept for the report.
func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// begin opens a span under parent (nil parent opens a request root). It
// returns nil on untraced blocks, and every span method accepts nil, so
// call sites need no branches.
func (c *client) begin(name string, parent *span) *span {
	if !c.traced {
		return nil
	}
	s := &span{ID: spanIDs.Add(1), Name: name, Start: sinceEpoch()}
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	} else {
		s.Req = s.ID
	}
	return s
}

func (c *client) end(s *span) {
	if s == nil {
		return
	}
	s.End = sinceEpoch()
	c.spans = append(c.spans, *s)
}

// stages lays the engine-reported stage durations of one Session call out
// as consecutive child spans of the call span. They are derived from
// Result.Timing, not measured by the benchmark; the span names carry the
// internal package each stage runs in.
func (c *client) stages(call *span, t pipeline.Timing) {
	if call == nil {
		return
	}
	at := call.Start
	add := func(name string, d time.Duration) {
		if d <= 0 {
			return
		}
		end := at + d.Nanoseconds()
		if end > call.End {
			end = call.End
		}
		c.spans = append(c.spans, span{ID: spanIDs.Add(1), Parent: call.ID, Req: call.Req, Name: name, Start: at, End: end})
		at = end
	}
	add("sqlparser.parse", t.Parse)
	add("lqp.translate", t.Translate)
	add("optimizer.optimize", t.Optimize)
	add("operators.to_pqp", t.ToPQP)
	add("operators.execute", t.Execute)
}

// recorder collects what the clients of one or more blocks measured.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]time.Duration
	spans     []span
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration // summed block wall time
	traced    bool
}

func newRecorder(traced bool) *recorder {
	return &recorder{lat: map[string][]time.Duration{}, traced: traced}
}

func (r *recorder) client() *client {
	return &client{lat: map[string][]time.Duration{}, traced: r.traced}
}

func (r *recorder) merge(c *client) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range c.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	r.spans = append(r.spans, c.spans...)
	r.attempted += c.attempted
	r.failed += c.failed
	if r.firstErr == nil {
		r.firstErr = c.firstErr
	}
}

// absorb folds another recorder (one block) into r (the pass).
func (r *recorder) absorb(o *recorder) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	r.spans = append(r.spans, o.spans...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wall += o.wall
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func (r *recorder) count(classes ...string) int {
	n := 0
	for _, c := range classes {
		n += len(r.lat[c])
	}
	return n
}

func (r *recorder) sum(classes ...string) time.Duration {
	var d time.Duration
	for _, c := range classes {
		for _, v := range r.lat[c] {
			d += v
		}
	}
	return d
}

// writeSpans flushes the spans to path, one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// attribution sums, over all requests, the root spans' wall time and the
// self time of their descendants (a span's self time is its duration minus
// what its children cover). The share the descendants do not account for
// is the benchmark's own time inside the operation: unattributed.
func attribution(spans []span, rootName string) (wall, attributed time.Duration) {
	children := map[int64]int64{} // parent id -> ns covered by children
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	roots := map[int64]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			roots[s.Req] = true
			wall += time.Duration(s.End - s.Start)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 || !roots[s.Req] {
			continue
		}
		self := (s.End - s.Start) - children[s.ID]
		if self > 0 {
			attributed += time.Duration(self)
		}
	}
	return wall, attributed
}
