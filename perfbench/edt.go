package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gid"
	"repro/internal/gui"
	"repro/internal/kernels"
)

// edt-offload: the paper's Figure 6/7 pattern on the gui toolkit, as an
// open loop. Events arrive on a seeded, jittered schedule and are posted to
// the EDT. Each handler sets a label and offloads a fixed-size Crypt with
// Invoke(worker, Nowait); the offloaded block validates the kernel and hops
// back with Invoke(edt, Wait) to set the label again. Probe events, small
// EDT events on a fixed schedule that repaint a second label
// edtProbeRepaint times, measure how long a small UI event takes, from its
// due time to its end, while handlers are in flight.
const (
	edtCryptBytes    = 16 << 10                // kernel size per event
	edtEventInterval = 2500 * time.Microsecond // mean time between events
	edtProbeInterval = 2500 * time.Microsecond // time between probes
	edtWorkers       = 1                       // worker target size
	edtProbeRepaint  = 512                     // SetText calls a probe makes
	edtWarmupEvents  = 64
)

type edtOffload struct {
	seed int64
	tr   *tracer

	reg   gid.Registry
	tk    *gui.Toolkit
	rt    *core.Runtime
	label *gui.Label
	probe *gui.Label
	texts []string

	epoch  time.Time
	events []edtEvent
	due    []int64 // ns after epoch each event is due
	done   atomic.Int64
	posted int

	lat, probed, lag *sampler
	failed           atomic.Int64
	drained          bool
}

func newEDTOffload(seed int64, tr *tracer) workload {
	return &edtOffload{seed: seed, tr: tr}
}

func (w *edtOffload) setup() error {
	w.tk = gui.NewToolkit(&w.reg)
	w.tk.SetPolicy(gui.CountViolations)
	w.rt = core.NewRuntime(&w.reg)
	if err := w.rt.RegisterEDT("edt", w.tk.EDT()); err != nil {
		return err
	}
	if _, err := w.rt.CreateWorker("worker", edtWorkers); err != nil {
		return err
	}
	w.label = w.tk.NewLabel("status")
	w.probe = w.tk.NewLabel("probe")
	rng := rand.New(rand.NewSource(w.seed))
	w.texts = make([]string, 64)
	for i := range w.texts {
		w.texts[i] = fmt.Sprintf("event %d/%x", i, rng.Uint32())
	}
	w.lat, w.probed, w.lag = newSampler(sampleCap), newSampler(sampleCap), newSampler(sampleCap)
	if w.tr != nil {
		w.observe()
	}
	// Warm up: a few events through the whole path, one at a time.
	w.epoch = time.Now()
	w.events = make([]edtEvent, edtWarmupEvents)
	w.due = make([]int64, edtWarmupEvents)
	for i := 0; i < edtWarmupEvents; i++ {
		w.due[i] = int64(time.Since(w.epoch))
		w.fire(i)
		if !waitFor(5*time.Second, func() bool { return w.done.Load() == int64(i+1) }) {
			return errors.New("edt-offload: warm-up event lost")
		}
	}
	if e := checkEDT(w.events, w.tk.Violations()); e.n > 0 {
		return fmt.Errorf("edt-offload warm-up: %w", e.err())
	}
	w.lat, w.probed, w.lag = newSampler(sampleCap), newSampler(sampleCap), newSampler(sampleCap)
	return nil
}

// observe installs the EDT's dispatch observer (traced runs only).
func (w *edtOffload) observe() {
	w.tk.EDT().SetObserver(w.tr.observer())
}

// fire posts event i to the EDT.
func (w *edtOffload) fire(i int) {
	var t0 int64
	if w.tr.on(int64(i)) {
		t0 = w.tr.now()
	}
	w.tk.InvokeLater(func() { w.handle(i) })
	if t0 != 0 {
		w.tr.record(spPost, -1, int64(i), t0, w.tr.now())
	}
}

// handle is the event handler, on the EDT.
func (w *edtOffload) handle(i int) {
	ev := &w.events[i]
	ev.handled++
	traced := w.tr.on(int64(i))
	var t0 int64
	if traced {
		t0 = w.tr.now()
	}
	w.label.SetText(w.texts[i%len(w.texts)])
	var call int64
	if traced {
		call = w.tr.now()
		w.tr.record(spSetText, -1, int64(i), t0, call)
	}
	_, err := w.rt.Invoke("worker", core.Nowait, func() { w.offload(i, call) })
	if traced {
		w.tr.record(spInvokeNowait, -1, int64(i), call, w.tr.now())
	}
	if err != nil {
		w.failed.Add(1)
		w.done.Add(1)
	}
}

// offload is the offloaded block, on the worker target.
func (w *edtOffload) offload(i int, call int64) {
	ev := &w.events[i]
	traced := w.tr.on(int64(i))
	var t0 int64
	if traced {
		t0 = w.tr.now()
		w.tr.record(spQueueWait, -1, int64(i), call, t0)
	}
	k := kernels.NewCrypt(edtCryptBytes)
	k.RunSeq()
	ev.kernelOK = k.Validate() == nil
	ev.kernelEnd = int64(time.Since(w.epoch))
	var h0 int64
	if traced {
		h0 = w.tr.now()
		w.tr.record(spCrypt, -1, int64(i), t0, h0)
	}
	comp, err := w.rt.Invoke("edt", core.Wait, func() { w.update(i) })
	if traced {
		w.tr.record(spEdtHop, -1, int64(i), h0, w.tr.now())
	}
	if err != nil || comp.Err() != nil {
		w.failed.Add(1)
		w.done.Add(1)
	}
}

// update is the event's final EDT update.
func (w *edtOffload) update(i int) {
	ev := &w.events[i]
	ev.finalOnEDT = w.tk.IsDispatchThread()
	w.label.SetText(w.texts[(i+1)%len(w.texts)])
	ev.finals++
	ev.finalAt = int64(time.Since(w.epoch))
	w.lat.add(ev.finalAt - w.due[i])
	w.done.Add(1)
}

func (w *edtOffload) run(d time.Duration) {
	rng := rand.New(rand.NewSource(w.seed))
	n := int(d / edtEventInterval)
	w.events = make([]edtEvent, n)
	w.due = make([]int64, n)
	for i := range w.due {
		// Uniform jitter over most of the interval keeps arrivals in order
		// while letting some of them bunch up.
		w.due[i] = int64(i)*int64(edtEventInterval) + rng.Int63n(int64(edtEventInterval)*4/5)
	}
	w.done.Store(0)
	w.epoch = time.Now()
	nextProbe := int64(edtProbeInterval / 2)
	// The generator waits for each probe to finish, as a user waits for the
	// answer to a click: it parks, and its processor picks the EDT up at
	// once instead of waking another.
	probeDone := make(chan struct{})
	var probeDue int64
	probeRun := func() {
		for j := 0; j < edtProbeRepaint; j++ {
			w.probe.SetText(w.texts[j%len(w.texts)])
		}
		w.probed.add(int64(time.Since(w.epoch)) - probeDue)
		probeDone <- struct{}{}
	}
	for i := 0; i < n; {
		due, isProbe := w.due[i], false
		if nextProbe < due {
			due, isProbe = nextProbe, true
		}
		sleepUntil(w.epoch.Add(time.Duration(due)))
		w.lag.add(int64(time.Since(w.epoch)) - due)
		if isProbe {
			probeDue = due
			w.tk.InvokeLater(probeRun)
			<-probeDone
			nextProbe += int64(edtProbeInterval)
			continue
		}
		w.fire(i)
		i++
	}
	w.posted = n
	w.drained = waitFor(10*time.Second, func() bool { return w.done.Load() == int64(n) })
}

func (w *edtOffload) progress() int64 { return w.done.Load() }

func (w *edtOffload) teardown() {
	if w.rt != nil {
		w.rt.Shutdown()
	}
	if w.tk != nil {
		w.tk.Dispose()
	}
}

func (w *edtOffload) outcome() outcome {
	o := outcome{
		attempted: int64(w.posted),
		failed:    w.failed.Load(),
		lat:       []*sampler{w.lat},
		probe:     []*sampler{w.probed},
		checks:    checkEDT(w.events, w.tk.Violations()),
	}
	if !w.drained {
		o.checks.addf("%d of %d events never finished", int64(w.posted)-w.done.Load(), w.posted)
	}
	lag := sorted(w.lag)
	o.notes = map[string]any{
		"generator_lag_p50_us": quantile(lag, 0.5) / 1e3,
		"generator_lag_tail":   tailOf(lag),
	}
	return o
}

func (w *edtOffload) layers(sum map[int32]layerStats, m map[string]float64) {
	m["core.invoke_nowait_ns"] = sum[spInvokeNowait].p50
	m["core.edt_hop_us"] = sum[spEdtHop].p50 / 1e3
	m["executor.queue_wait_us"] = sum[spQueueWait].p50 / 1e3
	m["eventloop.post_ns"] = sum[spPost].p50
	m["eventloop.queue_delay_us"] = sum[spQueueDelay].p50 / 1e3
	m["eventloop.dispatch_us"] = sum[spDispatch].p50 / 1e3
	m["eventloop.queue_peak"] = float64(w.tk.EDT().QueuePeak())
	m["gui.settext_ns"] = sum[spSetText].p50
	m["kernels.crypt_us"] = sum[spCrypt].p50 / 1e3
	m["workload.gen_lag_us"] = quantile(sorted(w.lag), 0.5) / 1e3
}
