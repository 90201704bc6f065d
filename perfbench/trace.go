package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer during the traced pass. Spans stay in
// memory and are exported when the run ends.
type span struct {
	ID     int
	Parent int // -1 for an op's root span
	Op     int
	Worker int
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans from any number of goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, op, worker, parent int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Worker: worker, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// opTrace is one op's span stack. An op runs on one goroutine, so the
// span open at the top of the stack is the parent of the next one.
type opTrace struct {
	tr     *tracer
	op     int
	worker int
	stack  []int
}

func (t *tracer) op(op, worker int) *opTrace {
	return &opTrace{tr: t, op: op, worker: worker}
}

// span runs f inside a span named name, nested in the innermost open span.
func (o *opTrace) span(name string, f func()) {
	parent := -1
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
	}
	id := o.tr.begin(name, o.op, o.worker, parent)
	o.stack = append(o.stack, id)
	defer func() {
		o.stack = o.stack[:len(o.stack)-1]
		o.tr.end(id)
	}()
	f()
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover, indexed by span ID.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = start, end
				continue
			}
			curEnd = max(curEnd, end)
		}
		covered += curEnd - curStart
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelf sums self time per span name.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// chromeEvent is one Chrome trace-event "complete" event (ph "X"), the
// format Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       header        `json:"otherData"`
}

// writeChromeTrace exports spans as Chrome trace-event JSON. Each worker
// goroutine is one thread, so an op's spans nest on its worker's track.
func writeChromeTrace(path string, h header, spans []span) error {
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.Worker,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	data, err := json.Marshal(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms", OtherData: h})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
