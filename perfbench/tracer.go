package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/eventloop"
)

// Span names: one per layer boundary the benchmark's own code crosses.
const (
	spUnset        = iota
	spOp           // one workload operation (root span)
	spInvokeWait   // core.Invoke(worker, Wait) with an empty block
	spInvokeNowait // return time of core.Invoke(worker, Nowait)
	spInvokeInline // core.Invoke on the caller's own target
	spAwait        // core.Invoke(worker, Await) from an EDT block
	spNameAs       // k core.InvokeNamed plus core.WaitTag
	spEdtHop       // the offloaded block's core.Invoke(edt, Wait)
	spQueueWait    // from the Invoke call to the block starting
	spWake         // from the block ending to Wait/WaitTag returning
	spPost         // eventloop.Loop.Post
	spQueueDelay   // eventloop DispatchInfo enqueue to start
	spDispatch     // eventloop DispatchInfo start to end
	spOwns         // Executor.Owns from outside the target
	spSetText      // gui.Label.SetText on the EDT
	spCrypt        // kernels.NewCrypt + RunSeq
	spRequest      // one httpserver.Client request
	spHandler      // the netloop HandleFunc body
	spSend         // netloop.Client.Send
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spUnset:        "unset",
	spOp:           "op",
	spInvokeWait:   "core.invoke_wait",
	spInvokeNowait: "core.invoke_nowait",
	spInvokeInline: "core.invoke_inline",
	spAwait:        "core.await",
	spNameAs:       "core.nameas_wait",
	spEdtHop:       "core.edt_hop",
	spQueueWait:    "executor.queue_wait",
	spWake:         "executor.wake",
	spPost:         "eventloop.post",
	spQueueDelay:   "eventloop.queue_delay",
	spDispatch:     "eventloop.dispatch",
	spOwns:         "gid.owns",
	spSetText:      "gui.settext",
	spCrypt:        "kernels.crypt",
	spRequest:      "httpserver.request",
	spHandler:      "netloop.handler",
	spSend:         "netloop.send",
}

// span is one recorded interval, in nanoseconds since the tracer's epoch.
// parent is the index of the span that caused it, or -1.
type span struct {
	name   int32
	parent int32
	op     int64
	start  int64
	end    int64
}

// tracer records spans from the benchmark's code into a buffer allocated
// up front; recording never allocates or locks. Spans past the buffer are
// counted as dropped. A nil *tracer records nothing, which is how the
// untraced run calls the same code.
type tracer struct {
	epoch   time.Time
	every   int64 // record the spans of every every-th operation
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int, every int64) *tracer {
	return &tracer{epoch: time.Now(), every: every, spans: make([]span, capacity)}
}

// on reports whether the spans of operation op are recorded.
func (t *tracer) on(op int64) bool { return t != nil && op%t.every == 0 }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// open reserves a slot for a span whose children are recorded before it
// ends; close fills it. It returns -1 when the buffer is full.
func (t *tracer) open() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

func (t *tracer) close(id int32, name int32, parent int32, op, start int64) {
	if id >= 0 {
		t.spans[id] = span{name: name, parent: parent, op: op, start: start, end: t.now()}
	}
}

// record adds a finished span and returns its index (-1 when full).
func (t *tracer) record(name int32, parent int32, op, start, end int64) int32 {
	id := t.open()
	if id >= 0 {
		t.spans[id] = span{name: name, parent: parent, op: op, start: start, end: end}
	}
	return id
}

// observer returns an eventloop observer that records the queue delay and
// the dispatch of every every-th event the loop dispatches. The loop calls
// it from its own goroutine only.
func (t *tracer) observer() func(eventloop.DispatchInfo) {
	var n int64
	return func(di eventloop.DispatchInfo) {
		n++
		if n%t.every != 0 {
			return
		}
		t.record(spQueueDelay, -1, n, t.at(di.Enqueued), t.at(di.Start))
		t.record(spDispatch, -1, n, t.at(di.Start), t.at(di.End))
	}
}

// recorded returns the filled spans. Call it only after every recording
// goroutine has been joined.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// layerStats is one span name's summary: its median duration and the mean
// of its self time (its duration minus the part its children cover).
type layerStats struct {
	count   int
	p50     float64 // ns
	selfAvg float64 // ns
}

func (t *tracer) summarize() map[int32]layerStats {
	spans := t.recorded()
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.name != spUnset && s.parent >= 0 && int(s.parent) < len(spans) {
			child[s.parent] += s.end - s.start
		}
	}
	durs := make(map[int32][]int64)
	self := make(map[int32]int64)
	for i, s := range spans {
		if s.name == spUnset {
			continue
		}
		d := s.end - s.start
		durs[s.name] = append(durs[s.name], d)
		if own := d - child[i]; own > 0 {
			self[s.name] += own
		}
	}
	out := make(map[int32]layerStats, len(durs))
	for name, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		out[name] = layerStats{count: len(d), p50: quantile(d, 0.5), selfAvg: float64(self[name]) / float64(len(d))}
	}
	return out
}

// printLayers writes one line per span name: count, median and mean self
// time.
func printLayers(w io.Writer, label string, sum map[int32]layerStats, dropped int64) {
	names := make([]int32, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, n := range names {
		s := sum[n]
		fmt.Fprintf(w, "layer %-12s %-24s spans=%-8d p50_us=%-10.3f self_mean_us=%.3f\n",
			label, spanNames[n], s.count, s.p50/1e3, s.selfAvg/1e3)
	}
	if dropped > 0 {
		fmt.Fprintf(w, "layer %-12s spans dropped past the buffer: %d\n", label, dropped)
	}
}

// writeSpans writes the recorded spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func (t *tracer) writeSpans(path, label string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	for i, s := range t.recorded() {
		if s.name == spUnset {
			continue
		}
		if !first {
			fmt.Fprint(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
			spanNames[s.name], label, s.op%64, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
