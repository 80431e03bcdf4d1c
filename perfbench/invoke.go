package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
)

// invoke-modes: a closed loop from one caller goroutine through Algorithm 1
// with near-empty blocks. A round runs one phase per mode, always in the
// same order; a phase is invokePhase operations of that mode:
//
//	wait    Invoke(worker, Wait)
//	nowait  Invoke(worker, Nowait), then a join on the completion
//	nameas  invokeK InvokeNamed(worker, tag), then WaitTag(tag)
//	await   from an EDT block, Invoke(worker, Await); the worker block posts
//	        a probe event to the EDT and waits for it, so the Await returns
//	        only if the EDT ran the probe inside its logical barrier
//	inline  inside one worker block, invokePhase Invoke(worker, Nowait)
//	        calls, which Algorithm 1 runs inline on the calling goroutine
//
// Every block adds a seeded linear function of its index to a sum that is
// checked against the closed form.
const (
	invokePhase   = 64
	invokeK       = 4
	invokeWorkers = 2
	invokeWarmup  = 16 // rounds
	allocEvery    = 8  // traced runs: rounds between two allocation counts
)

type invokeMode int

const (
	modeWait invokeMode = iota
	modeNowait
	modeNameAs
	modeAwait
	modeInline
	numModes
)

type invokeModes struct {
	seed int64
	tr   *tracer

	reg  gid.Registry
	rt   *core.Runtime
	loop *eventloop.Loop
	pool *executor.WorkerPool

	tally  invokeTally
	op     int64        // operations issued; also the span op id
	done   atomic.Int64 // operations completed, counted per phase
	rounds int64

	// Per-operation state shared with the blocks. The caller writes it
	// before the Invoke that hands it over; blocks write it before the
	// completion that hands it back.
	cur       int64          // index of the block being issued
	ran       atomic.Int64   // index of the last single block that ran
	slot      [invokeK]int64 // block indices of the nameas slots
	slotRan   [invokeK]atomic.Int64
	blkStart  int64 // tracer ns, when the last single block started
	blkEnd    int64
	blocksRun atomic.Int64
	sum       atomic.Int64

	blkSingle func()
	blkSlot   [invokeK]func()
	blkAwait  func()
	edtAwait  func()
	blkInline func()
	blkInner  func()
	probeFn   func()

	probeCh   chan struct{} // the awaiting worker block waits on it
	probeRan  atomic.Bool
	probePost time.Time
	awaitOK   bool
	innerG    gid.ID
	inline    inlineCount // the last inline phase's results, written on the worker

	lat, probe *sampler

	// Traced runs: allocations and operations per mode, pool deltas.
	allocs   [numModes]uint64
	modeOps  [numModes]int64
	poolFrom executor.Stats
	poolTo   executor.Stats
	runOps   int64
}

func newInvokeModes(seed int64, tr *tracer) workload {
	return &invokeModes{seed: seed, tr: tr}
}

func (w *invokeModes) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.tally.coefA = 1 + rng.Int63n(1000)
	w.tally.coefB = rng.Int63n(1000)
	w.rt = core.NewRuntime(&w.reg)
	w.loop = eventloop.New("edt", &w.reg)
	w.loop.Start()
	if err := w.rt.RegisterEDT("edt", w.loop); err != nil {
		return err
	}
	pool, err := w.rt.CreateWorker("worker", invokeWorkers)
	if err != nil {
		return err
	}
	w.pool = pool
	w.probeCh = make(chan struct{}, 1)
	w.lat, w.probe = newSampler(sampleCap), newSampler(sampleCap)
	w.makeBlocks()
	if w.tr != nil {
		w.loop.SetObserver(w.tr.observer())
	}
	for i := 0; i < invokeWarmup; i++ {
		w.round()
	}
	if e := checkInvoke(w.snapshot()); e.n > 0 {
		return e.err()
	}
	if w.tally.failed() > 0 {
		return errors.New("invoke-modes: warm-up round failed")
	}
	w.lat, w.probe = newSampler(sampleCap), newSampler(sampleCap)
	return nil
}

// contribute is the work of every block: add block idx's share to the sum.
func (w *invokeModes) contribute(idx int64) {
	w.sum.Add(w.tally.coefA*idx + w.tally.coefB)
	w.blocksRun.Add(1)
}

// makeBlocks builds every block closure once, so that the loop measures the
// runtime's allocations and not the benchmark's.
func (w *invokeModes) makeBlocks() {
	w.blkSingle = func() {
		if w.tr != nil {
			w.blkStart = w.tr.now()
		}
		w.contribute(w.cur)
		w.ran.Store(w.cur)
		if w.tr != nil {
			w.blkEnd = w.tr.now()
		}
	}
	for j := range w.blkSlot {
		j := j
		w.blkSlot[j] = func() {
			w.contribute(w.slot[j])
			w.slotRan[j].Store(w.slot[j])
		}
	}
	w.probeFn = func() {
		w.probe.add(int64(time.Since(w.probePost)))
		w.probeRan.Store(true)
		w.probeCh <- struct{}{}
	}
	w.blkAwait = func() {
		w.contribute(w.cur)
		w.ran.Store(w.cur)
		w.probePost = time.Now()
		var t0 int64
		if w.tr.on(w.op) {
			t0 = w.tr.now()
		}
		w.loop.Post(w.probeFn)
		if t0 != 0 {
			w.tr.record(spPost, -1, w.op, t0, w.tr.now())
		}
		<-w.probeCh
	}
	w.edtAwait = func() {
		w.probeRan.Store(false)
		var t0 int64
		if w.tr.on(w.op) {
			t0 = w.tr.now()
		}
		comp, err := w.rt.Invoke("worker", core.Await, w.blkAwait)
		if t0 != 0 {
			w.tr.record(spAwait, -1, w.op, t0, w.tr.now())
		}
		w.awaitOK = err == nil && comp.Err() == nil && w.probeRan.Load() && w.ran.Load() == w.cur
	}
	w.blkInner = func() {
		w.innerG = gid.Current()
		w.contribute(w.cur)
	}
	w.blkInline = func() {
		g := gid.Current()
		var t inlineCount
		for j := 0; j < invokePhase; j++ {
			w.cur = w.nextBlock()
			w.innerG = 0
			var t0 int64
			if w.tr.on(w.op) {
				t0 = w.tr.now()
			}
			comp, err := w.rt.Invoke("worker", core.Nowait, w.blkInner)
			if t0 != 0 {
				w.tr.record(spInvokeInline, -1, w.op, t0, w.tr.now())
			}
			w.op++
			t.ops++
			if err == nil && comp.Finished() && comp.Err() == nil {
				t.done++
			}
			if w.innerG == g {
				t.sameG++
			}
		}
		w.inline = t
	}
}

// inlineCount is one inline phase's results.
type inlineCount struct{ ops, done, sameG int64 }

func (w *invokeModes) nextBlock() int64 {
	i := w.tally.blocks
	w.tally.blocks++
	return i
}

// round runs one phase of every mode. In a traced run, every
// allocEvery-th round also counts the heap allocations of one mode's phase,
// taking the modes in turn; counting every phase would stop the world too
// often to leave the rest of the trace meaningful.
func (w *invokeModes) round() {
	w.rounds++
	measured := invokeMode(-1)
	if w.tr != nil && w.rounds%allocEvery == 0 {
		measured = invokeMode(w.rounds / allocEvery % int64(numModes))
	}
	for m := invokeMode(0); m < numModes; m++ {
		if m != measured {
			w.phase(m)
			w.done.Add(invokePhase)
			continue
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		calls := w.phase(m)
		runtime.ReadMemStats(&ms)
		w.allocs[m] += ms.Mallocs - before
		w.modeOps[m] += calls
		w.done.Add(invokePhase)
	}
}

// phase runs invokePhase operations of mode m and returns how many
// invocations they made.
func (w *invokeModes) phase(m invokeMode) int64 {
	switch m {
	case modeInline:
		w.rt.Invoke("worker", core.Wait, w.blkInline)
		w.tally.inlineOps += w.inline.ops
		w.tally.inlineDone += w.inline.done
		w.tally.inlineSameG += w.inline.sameG
		return invokePhase
	case modeNameAs:
		for i := 0; i < invokePhase; i++ {
			w.opNameAs()
		}
		return invokePhase * invokeK
	}
	for i := 0; i < invokePhase; i++ {
		switch m {
		case modeWait:
			w.opWait()
		case modeNowait:
			w.opNowait()
		case modeAwait:
			w.opAwait()
		}
	}
	return invokePhase
}

func (w *invokeModes) progress() int64 { return w.done.Load() }

func (w *invokeModes) opWait() {
	w.cur = w.nextBlock()
	traced := w.tr.on(w.op)
	var root int32
	if traced {
		root = w.tr.open()
	}
	t0 := time.Now()
	var s0 int64
	if traced {
		s0 = w.tr.now()
		if w.op%(4*w.tr.every) == 0 {
			// Executor.Owns, asked from outside the target.
			w.pool.Owns()
			w.tr.record(spOwns, root, w.op, s0, w.tr.now())
			s0 = w.tr.now()
		}
	}
	comp, err := w.rt.Invoke("worker", core.Wait, w.blkSingle)
	w.lat.add(int64(time.Since(t0)))
	if traced {
		end := w.tr.now()
		inv := w.tr.record(spInvokeWait, root, w.op, s0, end)
		w.tr.record(spQueueWait, inv, w.op, s0, w.blkStart)
		w.tr.record(spWake, inv, w.op, w.blkEnd, end)
		w.tr.close(root, spOp, -1, w.op, s0)
	}
	w.op++
	w.tally.waitOps++
	if err == nil && comp.Err() == nil && w.ran.Load() == w.cur {
		w.tally.waitRanFirst++
	}
}

func (w *invokeModes) opNowait() {
	w.cur = w.nextBlock()
	traced := w.tr.on(w.op)
	var t0 int64
	if traced {
		t0 = w.tr.now()
	}
	comp, err := w.rt.Invoke("worker", core.Nowait, w.blkSingle)
	if traced {
		w.tr.record(spInvokeNowait, -1, w.op, t0, w.tr.now())
	}
	w.op++
	w.tally.nowaitOps++
	if err == nil && comp.Wait() == nil && w.ran.Load() == w.cur {
		w.tally.nowaitNilErr++
	}
}

func (w *invokeModes) opNameAs() {
	traced := w.tr.on(w.op)
	var t0 int64
	if traced {
		t0 = w.tr.now()
	}
	ok := true
	for j := range w.slot {
		w.slot[j] = w.nextBlock()
		if _, err := w.rt.InvokeNamed("worker", "batch", w.blkSlot[j]); err != nil {
			ok = false
		}
	}
	err := w.rt.WaitTag("batch")
	if traced {
		w.tr.record(spNameAs, -1, w.op, t0, w.tr.now())
	}
	w.op++
	w.tally.nameasOps++
	for j := range w.slot {
		if w.slotRan[j].Load() != w.slot[j] {
			ok = false
		}
	}
	if ok && err == nil {
		w.tally.nameasAllRan++
	}
}

func (w *invokeModes) opAwait() {
	w.cur = w.nextBlock()
	w.awaitOK = false
	comp, err := w.rt.Invoke("edt", core.Wait, w.edtAwait)
	w.op++
	w.tally.awaitOps++
	if err == nil && comp.Err() == nil && w.awaitOK {
		w.tally.awaitProbeFirst++
	}
}

func (w *invokeModes) run(d time.Duration) {
	w.poolFrom = w.pool.Stats()
	opsBefore := w.op
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		w.round()
	}
	w.runOps = w.op - opsBefore
	w.poolTo = w.pool.Stats()
}

// snapshot returns the tally with the blocks' side of it filled in.
func (w *invokeModes) snapshot() invokeTally {
	t := w.tally
	t.sum = w.sum.Load()
	t.blocksRun = w.blocksRun.Load()
	return t
}

func (w *invokeModes) teardown() {
	if w.rt != nil {
		w.rt.Shutdown()
	}
	if w.loop != nil {
		w.loop.Stop()
	}
}

func (w *invokeModes) outcome() outcome {
	t := w.snapshot()
	o := outcome{
		attempted: w.runOps,
		lat:       []*sampler{w.lat},
		probe:     []*sampler{w.probe},
		checks:    checkInvoke(t),
	}
	o.failed = t.failed()
	o.notes = map[string]any{"latency_is": "Invoke(worker, Wait) round trip"}
	return o
}

func (w *invokeModes) layers(sum map[int32]layerStats, m map[string]float64) {
	m["core.invoke_wait_us"] = sum[spInvokeWait].p50 / 1e3
	m["core.invoke_nowait_ns"] = sum[spInvokeNowait].p50
	m["core.invoke_inline_ns"] = sum[spInvokeInline].p50
	m["core.await_us"] = sum[spAwait].p50 / 1e3
	m["core.nameas_wait_us"] = sum[spNameAs].p50 / 1e3
	perMode := func(md invokeMode) float64 {
		if w.modeOps[md] == 0 {
			return 0
		}
		return float64(w.allocs[md]) / float64(w.modeOps[md])
	}
	m["core.allocs_wait"] = perMode(modeWait)
	m["core.allocs_nowait"] = perMode(modeNowait)
	m["core.allocs_await"] = perMode(modeAwait)
	m["core.allocs_nameas"] = perMode(modeNameAs)
	m["executor.queue_wait_us"] = sum[spQueueWait].p50 / 1e3
	m["executor.wake_us"] = sum[spWake].p50 / 1e3
	if w.runOps > 0 {
		m["executor.steals_per_op"] = float64(w.poolTo.Steals-w.poolFrom.Steals) / float64(w.runOps)
		m["executor.helped_per_op"] = float64(w.poolTo.Helped-w.poolFrom.Helped) / float64(w.runOps)
	}
	m["eventloop.post_ns"] = sum[spPost].p50
	m["eventloop.queue_delay_us"] = sum[spQueueDelay].p50 / 1e3
	m["eventloop.dispatch_us"] = sum[spDispatch].p50 / 1e3
	m["eventloop.queue_peak"] = float64(w.loop.QueuePeak())
	m["gid.owns_ns"] = sum[spOwns].p50
}
