package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpserver"
	"repro/internal/kernels"
)

// http-encrypt: the paper's Figure 9 service in httpserver.Pyjama mode,
// driven as a closed loop by httpConns goroutines over keep-alive
// connections. Each request asks for a seeded size near httpBaseBytes, so
// that the kernel takes about two thirds of a request. Every httpProbeEvery-th
// request of a goroutine is a /healthz probe, which no worker serves: the
// wait a tiny request sees while the other connection's encryption is in
// flight. Sizes vary by whole blocks within a narrow band, so every seed
// asks for the same work on average.
const (
	httpBaseBytes  = 4 << 10
	httpSizes      = 16 // sizes httpBaseBytes, +8, ..., +8*(httpSizes-1)
	httpConns      = 2
	httpWorkers    = 2
	httpProbeEvery = 8
	httpWarmup     = 256 // requests per connection
)

type httpEncrypt struct {
	seed int64
	tr   *tracer

	want   map[int]int64 // reference checksums by size
	seq    [httpConns][]int
	srv    *httpserver.Server
	client *httpserver.Client

	conn [httpConns]httpConn

	runOps  int64
	done    atomic.Int64 // requests answered, across connections
	cryptUS float64      // kernels.crypt_ref_us, traced runs only
}

// httpConn is one load goroutine's share of the results.
type httpConn struct {
	ops, failed int64
	next        int // index into the goroutine's size sequence
	lat, probe  *sampler
	errs        errList
}

func newHTTPEncrypt(seed int64, tr *tracer) workload {
	w := &httpEncrypt{seed: seed, tr: tr, want: make(map[int]int64)}
	for j := 0; j < httpSizes; j++ {
		size := httpBaseBytes + 8*j
		w.want[size] = referenceChecksum(size)
	}
	rng := rand.New(rand.NewSource(w.seed))
	for g := range w.seq {
		w.seq[g] = make([]int, 1024)
		for i := range w.seq[g] {
			w.seq[g][i] = httpBaseBytes + 8*rng.Intn(httpSizes)
		}
	}
	return w
}

func (w *httpEncrypt) setup() error {
	w.srv = httpserver.New(httpserver.Config{Mode: httpserver.Pyjama, Workers: httpWorkers, KernelBytes: httpBaseBytes})
	base, err := w.srv.Start()
	if err != nil {
		return err
	}
	w.client = httpserver.NewClient(base)
	for g := range w.conn {
		w.conn[g] = httpConn{lat: newSampler(sampleCap), probe: newSampler(sampleCap)}
	}
	w.drive(time.Time{}, httpWarmup/httpProbeEvery)
	for g := range w.conn {
		if e := w.conn[g].errs; e.n > 0 {
			return e.err()
		}
		w.conn[g] = httpConn{lat: newSampler(sampleCap), probe: newSampler(sampleCap), next: w.conn[g].next}
	}
	if w.tr != nil {
		w.cryptUS = timeCrypt(httpBaseBytes+8*(httpSizes/2), 200)
	}
	return nil
}

// timeCrypt is the median time of reps NewCrypt+RunSeq calls, in µs.
func timeCrypt(size, reps int) float64 {
	s := newSampler(reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		k := kernels.NewCrypt(size)
		k.RunSeq()
		s.add(int64(time.Since(t0)))
	}
	return quantile(sorted(s), 0.5) / 1e3
}

// drive runs the closed loop on every connection until end (or, with a
// zero end, for the given number of rounds) and waits for it. A round is
// httpProbeEvery requests, the last of them a probe.
func (w *httpEncrypt) drive(end time.Time, rounds int) {
	var wg sync.WaitGroup
	for g := range w.conn {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &w.conn[g]
			for r := 0; end.IsZero() && r < rounds || !end.IsZero() && time.Now().Before(end); r++ {
				for i := 0; i < httpProbeEvery-1; i++ {
					w.encrypt(g, c)
				}
				w.healthz(c)
			}
		}(g)
	}
	wg.Wait()
}

func (w *httpEncrypt) encrypt(g int, c *httpConn) {
	size := w.seq[g][c.next%len(w.seq[g])]
	c.next++
	op := c.ops*httpConns + int64(g)
	var t0 int64
	if w.tr.on(op) {
		t0 = w.tr.now()
	}
	start := time.Now()
	sum, status, err := w.client.Do(size)
	c.lat.add(int64(time.Since(start)))
	if t0 != 0 {
		w.tr.record(spRequest, -1, op, t0, w.tr.now())
	}
	c.ops++
	w.done.Add(1)
	if err := checkResponse(w.want, size, status, sum, err); err != nil {
		c.failed++
		c.errs.addf("%v", err)
	}
}

func (w *httpEncrypt) healthz(c *httpConn) {
	start := time.Now()
	status, code, err := w.client.Healthz()
	c.probe.add(int64(time.Since(start)))
	c.ops++
	w.done.Add(1)
	if err != nil || code != 200 || status != "ok" {
		c.failed++
		c.errs.addf("healthz: status %q, code %d, err %v", status, code, err)
	}
}

func (w *httpEncrypt) run(d time.Duration) {
	var before int64
	for g := range w.conn {
		before += w.conn[g].ops
	}
	w.drive(time.Now().Add(d), 0)
	for g := range w.conn {
		w.runOps += w.conn[g].ops
	}
	w.runOps -= before
}

func (w *httpEncrypt) progress() int64 { return w.done.Load() }

func (w *httpEncrypt) teardown() {
	if w.srv != nil {
		w.srv.Stop()
	}
}

func (w *httpEncrypt) outcome() outcome {
	o := outcome{attempted: w.runOps}
	var lat, probe []*sampler
	for g := range w.conn {
		c := &w.conn[g]
		o.failed += c.failed
		o.checks.merge(c.errs)
		lat = append(lat, c.lat)
		probe = append(probe, c.probe)
	}
	if n := w.srv.Errors(); n != 0 {
		o.checks.addf("server counted %d errors", n)
	}
	o.lat, o.probe = lat, probe
	st := w.srv.SchedStats()["worker"]
	o.notes = map[string]any{"worker_steals": st.Steals, "worker_completed": st.Completed}
	return o
}

func (w *httpEncrypt) layers(sum map[int32]layerStats, m map[string]float64) {
	m["kernels.crypt_ref_us"] = w.cryptUS
	var sojourn, run float64
	if tm := w.srv.Spans().Target("worker"); tm != nil {
		sojourn = float64(tm.Sojourn.Quantile(0.5)) / 1e3
		run = float64(tm.Run.Quantile(0.5)) / 1e3
	}
	m["metrics.worker_sojourn_us"] = sojourn
	m["metrics.worker_run_us"] = run
	m["httpserver.serve_us"] = sum[spRequest].p50/1e3 - w.cryptUS - sojourn
}
