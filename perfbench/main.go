// Command perfbench is the repository's benchmark. It drives the runtime
// through its public API on four workloads, checks every output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	perfbench --workload edt-offload --seed 1 --seconds 10 --trace 0
//	perfbench steady --runs 10 --seconds 10
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one named set of inputs. setup builds the targets, starts the
// servers, opens the connections and runs the warm-up operations; run
// drives the load for d and lets it drain; teardown stops everything it
// started and waits for it.
type workload interface {
	setup() error
	run(d time.Duration)
	teardown()
	outcome() outcome
	layers(sum map[int32]layerStats, m map[string]float64)
	progress() int64 // operations completed so far; safe from any goroutine
}

// outcome is what a workload's run produced.
type outcome struct {
	attempted, failed int64
	lat, probe        []*sampler // ns
	checks            errList
	notes             map[string]any
}

func (o *outcome) completed() int64 { return o.attempted - o.failed }

// workloads lists the workloads in the order traced runs visit them. every
// is how many operations pass between two whose spans a traced run records,
// so that the run fits its span buffer.
var workloads = []struct {
	name  string
	make  func(seed int64, tr *tracer) workload
	every int64
}{
	{"edt-offload", newEDTOffload, 1},
	{"invoke-modes", newInvokeModes, 16},
	{"http-encrypt", newHTTPEncrypt, 1},
	{"net-lines", newNetLines, 1},
}

// lookup returns the index of the workload called name, or -1.
func lookup(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return -1
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// setupReps is how many times an untraced run sets up its workload; it
// reports the median over the quiet set-ups (see quiet).
const setupReps = 7

var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"probe_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"max_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"core.invoke_wait_us", "us"},
	{"core.invoke_nowait_ns", "ns"},
	{"core.invoke_inline_ns", "ns"},
	{"core.await_us", "us"},
	{"core.nameas_wait_us", "us"},
	{"core.edt_hop_us", "us"},
	{"core.allocs_wait", "count"},
	{"core.allocs_nowait", "count"},
	{"core.allocs_await", "count"},
	{"core.allocs_nameas", "count"},
	{"executor.queue_wait_us", "us"},
	{"executor.wake_us", "us"},
	{"executor.steals_per_op", "count"},
	{"executor.helped_per_op", "count"},
	{"eventloop.post_ns", "ns"},
	{"eventloop.queue_delay_us", "us"},
	{"eventloop.dispatch_us", "us"},
	{"eventloop.queue_peak", "count"},
	{"gid.owns_ns", "ns"},
	{"gui.settext_ns", "ns"},
	{"kernels.crypt_us", "us"},
	{"kernels.crypt_ref_us", "us"},
	{"metrics.worker_sojourn_us", "us"},
	{"metrics.worker_run_us", "us"},
	{"httpserver.serve_us", "us"},
	{"netloop.handler_us", "us"},
	{"netloop.send_ns", "ns"},
	{"reactor.read_events_per_op", "count"},
	{"reactor.write_events_per_op", "count"},
	{"reactor.wakeups_per_op", "count"},
	{"reactor.partial_writes_per_op", "count"},
	{"reactor.lines_per_read", "count"},
	{"workload.gen_lag_us", "us"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build", "where a traced run writes its spans")
	fs.Parse(os.Args[1:])
	if lookup(*name) < 0 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	limit := max(150*time.Second, 3*d)
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run did not finish within %v\n", limit)
		os.Exit(3)
	})
	printLine("machine", machine())
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(*name, *seed, d, *spansDir)
	} else {
		res, err = untracedRun(*name, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res) // a struct of numbers and strings always marshals
	fmt.Println(string(out))
}

// printLine prints a labelled JSON line ahead of the result line.
func printLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

// machine describes the host the run measured.
func machine() map[string]any {
	m := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     "unknown (not built from a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m["commit"] = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// pass is one measured stretch of one workload.
type pass struct {
	setupS        []float64
	setupSteal    []int64
	before, after usage
	windows       []window
	out           outcome
	w             workload
}

// window is the progress one measurement window saw, and the CPU time the
// host took from the machine meanwhile.
type window struct {
	ops        int64
	cpu        time.Duration
	start, end time.Time
	steal      int64
}

// windows is how many windows a run is cut into. Throughput, CPU per
// operation and the latency medians come from the quiet windows (see quiet).
const windows = 100

// watch samples the workload's progress and the process's CPU time once
// per window until stop is closed, and returns the complete windows.
func watch(w workload, every time.Duration, stop <-chan struct{}) []window {
	type sample struct {
		ops   int64
		cpu   time.Duration
		wall  time.Time
		steal int64
	}
	take := func() sample {
		cpu, _ := cpuTime()
		return sample{w.progress(), cpu, time.Now(), stealTicks()}
	}
	var out []window
	tick := time.NewTicker(every)
	defer tick.Stop()
	prev := take()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			cur := take()
			out = append(out, window{cur.ops - prev.ops, cur.cpu - prev.cpu, prev.wall, cur.wall, cur.steal - prev.steal})
			prev = cur
		}
	}
}

// measure sets name up setups times (keeping the last), runs it for d and
// tears it down.
func measure(name string, seed int64, d time.Duration, tr *tracer, setups int) (*pass, error) {
	p := &pass{}
	for i := 0; i < setups; i++ {
		p.w = workloads[lookup(name)].make(seed, tr)
		s0, t0 := stealTicks(), time.Now()
		if err := p.w.setup(); err != nil {
			p.w.teardown()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		p.setupSteal = append(p.setupSteal, stealTicks()-s0)
		if i < setups-1 {
			p.w.teardown()
		}
	}
	if tr != nil {
		tr.next.Store(0) // keep only the measured stretch's spans
	}
	p.before = takeUsage()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p.windows = watch(p.w, d/windows, stop)
	}()
	p.w.run(d)
	close(stop)
	<-done
	p.after = takeUsage()
	p.w.teardown()
	p.out = p.w.outcome()
	return p, nil
}

func (p *pass) cpuPerOp() float64 {
	return float64(p.after.cpu-p.before.cpu) / 1e3 / float64(max(p.out.completed(), 1))
}

func untracedRun(name string, seed int64, d time.Duration) (result, error) {
	p, err := measure(name, seed, d, nil, setupReps)
	if err != nil {
		return result{}, err
	}
	o := p.out
	if o.completed() <= 0 {
		return result{}, fmt.Errorf("%s completed no operation", name)
	}
	ops := float64(o.completed())
	var busy []window
	var stolen int64
	for _, win := range p.windows {
		stolen += win.steal
		if win.ops > 0 {
			busy = append(busy, win)
		}
	}
	if len(busy) == 0 {
		return result{}, fmt.Errorf("%s: no measurement window completed an operation", name)
	}
	steal := make([]int64, len(busy))
	for i, win := range busy {
		steal[i] = win.steal
	}
	// Throughput, CPU per operation and the latency medians come from the
	// quiet windows: those whose host steal is at most the median window's.
	var rate, cpu []float64
	var quietWins []window
	for i, k := range quiet(steal) {
		if k {
			win := busy[i]
			rate = append(rate, float64(win.ops)/win.end.Sub(win.start).Seconds())
			cpu = append(cpu, float64(win.cpu)/1e3/float64(win.ops))
			quietWins = append(quietWins, win)
		}
	}
	inQuiet := func(at int64) bool {
		i := sort.Search(len(quietWins), func(i int) bool { return quietWins[i].end.UnixNano() > at })
		return i < len(quietWins) && quietWins[i].start.UnixNano() <= at
	}
	lat, probe := sortedWithin(inQuiet, o.lat...), sortedWithin(inQuiet, o.probe...)
	allLat, allProbe := sorted(o.lat...), sorted(o.probe...)
	v := map[string]float64{
		"setup_s":          quietMedian(p.setupS, p.setupSteal),
		"throughput_ops_s": median(rate),
		"latency_p50_us":   quantile(lat, 0.5) / 1e3,
		"probe_p50_us":     quantile(probe, 0.5) / 1e3,
		"cpu_us_per_op":    median(cpu),
		"allocs_per_op":    float64(p.after.mallocs-p.before.mallocs) / ops,
		"bytes_per_op":     float64(p.after.bytes-p.before.bytes) / ops,
		"max_rss_mb":       float64(p.after.maxRSS) / 1024,
	}
	notes := map[string]any{
		"workload": name, "seed": seed, "seconds": d.Seconds(),
		"setup_s_each": p.setupS, "setup_steal_ticks": p.setupSteal,
		"host_steal_share": float64(stolen) / (p.after.wall.Sub(p.before.wall).Seconds() * 100 * float64(runtime.NumCPU())),
		"latency_samples":  len(allLat), "probe_samples": len(allProbe),
		"latency_p50_us_all_windows": quantile(allLat, 0.5) / 1e3,
		"probe_p50_us_all_windows":   quantile(allProbe, 0.5) / 1e3,
		"latency_tail":               tailOf(allLat), "probe_tail": tailOf(allProbe),
		"windows": len(p.windows), "quiet_windows": len(quietWins),
		"throughput_whole_run_ops_s": ops / p.after.wall.Sub(p.before.wall).Seconds(),
		"cpu_us_per_op_whole_run":    p.cpuPerOp(),
	}
	for k, x := range o.notes {
		notes[k] = x
	}
	if err := o.checks.err(); err != nil {
		notes["check_failures"] = err.Error()
	}
	printLine("detail", notes)
	return finish(o.checks.n == 0, o.attempted, o.failed, v, endToEnd), nil
}

// tracedRun measures name untraced for a quarter of d and traced for
// nearly half, and prints the overhead between the two. Per-layer metrics
// that name does not exercise come from a short traced pass of the
// workload that does, so every traced run reports every per-layer metric.
func tracedRun(name string, seed int64, d time.Duration, spansDir string) (result, error) {
	base, err := measure(name, seed, d/4, nil, 1)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(1<<19, workloads[lookup(name)].every)
	tp, err := measure(name, seed, d*9/20, tr, 1)
	if err != nil {
		return result{}, err
	}
	overhead := (tp.cpuPerOp()/base.cpuPerOp() - 1) * 100
	fmt.Printf("trace %s overhead: cpu_us_per_op untraced %.3f, traced %.3f (%+.1f%%)\n",
		name, base.cpuPerOp(), tp.cpuPerOp(), overhead)
	m := map[string]float64{"trace.overhead_pct": overhead}
	sum := tr.summarize()
	printLayers(os.Stdout, name, sum, tr.dropped.Load())
	tp.w.layers(sum, m)
	if err := tr.writeSpans(filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)), name); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	passes := []*pass{base, tp}
	for _, other := range workloads {
		if other.name == name {
			continue
		}
		otr := newTracer(1<<17, other.every)
		p, err := measure(other.name, seed, d/10, otr, 1)
		if err != nil {
			return result{}, err
		}
		osum := otr.summarize()
		printLayers(os.Stdout, other.name, osum, otr.dropped.Load())
		theirs := map[string]float64{}
		p.w.layers(osum, theirs)
		for k, v := range theirs {
			if _, ok := m[k]; !ok {
				m[k] = v
			}
		}
		passes = append(passes, p)
	}
	var checks errList
	var attempted, failed int64
	for _, p := range passes {
		checks.merge(p.out.checks)
		attempted += p.out.attempted
		failed += p.out.failed
	}
	if err := checks.err(); err != nil {
		printLine("detail", map[string]any{"check_failures": err.Error()})
	}
	return finish(checks.n == 0, attempted, failed, m, perLayer), nil
}

// finish builds the result line from values, in the order of names.
func finish(correct bool, attempted, failed int64, values map[string]float64, names []struct{ name, unit string }) result {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var missing []string
	for _, n := range names {
		v, ok := values[n.name]
		if !ok {
			missing = append(missing, n.name)
		}
		r.Metrics[n.name] = metric{Value: v, Unit: n.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: no value measured for %s\n", strings.Join(missing, ", "))
		r.Correct = false
	}
	return r
}
