package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sampler keeps an evenly strided subset of the values it is given, each
// with the wall-clock time it was added, in buffers allocated once: when
// they fill, every other value is dropped and the stride doubles. It never
// allocates after construction, so it does not disturb the allocation
// counts it sits next to. Not safe for concurrent use: each recording
// goroutine owns its own sampler.
type sampler struct {
	buf    []int64
	at     []int64 // unix ns when each kept value was added
	stride int64
	n      int64
}

// sampleCap is the capacity of a workload's samplers: enough for a stable
// median and a p99.9 tail, small enough not to move max_rss_mb.
const sampleCap = 1 << 14

func newSampler(capacity int) *sampler {
	return &sampler{buf: make([]int64, 0, capacity), at: make([]int64, 0, capacity), stride: 1}
}

func (s *sampler) add(v int64) {
	s.n++
	if (s.n-1)%s.stride != 0 {
		return
	}
	if len(s.buf) == cap(s.buf) {
		j := 0
		for i := 0; i < len(s.buf); i += 2 {
			s.buf[j], s.at[j] = s.buf[i], s.at[i]
			j++
		}
		s.buf, s.at = s.buf[:j], s.at[:j]
		s.stride *= 2
		if (s.n-1)%s.stride != 0 {
			return
		}
	}
	s.buf = append(s.buf, v)
	s.at = append(s.at, time.Now().UnixNano())
}

// sorted returns the retained values of all samplers, sorted.
func sorted(ss ...*sampler) []int64 {
	return sortedWithin(nil, ss...)
}

// sortedWithin returns, sorted, the retained values whose time keep
// accepts (all of them when keep is nil).
func sortedWithin(keep func(at int64) bool, ss ...*sampler) []int64 {
	var out []int64
	for _, s := range ss {
		for i, v := range s.buf {
			if keep == nil || keep(s.at[i]) {
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile interpolates the q-quantile of sorted values (0 when empty).
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return float64(v[len(v)-1])
	}
	f := pos - float64(i)
	return float64(v[i])*(1-f) + float64(v[i+1])*f
}

// tail is the highest reported percentile with at least ten samples beyond
// it. With fewer than forty samples there is no tail, only the median.
type tail struct {
	Percentile float64 `json:"percentile"`
	ValueUS    float64 `json:"value_us"`
	Samples    int     `json:"samples"`
}

func tailOf(v []int64) *tail {
	if len(v) < 40 {
		return nil
	}
	best := 0.0
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(len(v))*(1-q) >= 10 {
			best = q
		}
	}
	return &tail{Percentile: best * 100, ValueUS: quantile(v, best) / 1e3, Samples: len(v)}
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	maxRSS  int64 // KiB
}

func takeUsage() usage {
	cpu, maxRSS := cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, maxRSS: maxRSS}
}

// cpuTime returns the process's user+system CPU time so far and its peak
// resident set in KiB.
func cpuTime() (time.Duration, int64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a valid struct cannot fail
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)), ru.Maxrss
}

// spinWindow is how much of a wait sleepUntil spends spinning instead of
// sleeping. Go's own timers fire up to a millisecond late on this kind of
// host, and a plain nanosleep about 60-100 µs late, so the generator sleeps
// in the kernel until spinWindow before the due time and spins the rest.
const spinWindow = 150 * time.Microsecond

// sleepUntil returns at t, as close to it as the host allows. It first
// yields, so that a goroutine the caller has just made runnable does not
// wait behind the caller's sleep for its processor.
func sleepUntil(t time.Time) {
	runtime.Gosched()
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
			continue
		}
		for time.Now().Before(t) {
			runtime.Gosched()
		}
		return
	}
}

// waitFor polls cond every millisecond until it holds or limit passes, and
// reports whether it held.
func waitFor(limit time.Duration, cond func() bool) bool {
	end := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// stealTicks returns the CPU time the host has taken from this machine so
// far (the steal column of /proc/stat, in clock ticks summed over CPUs), or
// 0 where the host does not report it.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64) // a malformed field reads as no steal
	return n
}

// quiet reports which samples to keep: those whose steal is at most the
// median steal. On a shared host the hypervisor takes the CPU away in
// bursts, and the quieter samples measure the program rather than its
// neighbours. Where the host reports no steal, every sample is kept.
func quiet(steal []int64) []bool {
	s := append([]int64(nil), steal...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	keep := make([]bool, len(steal))
	if len(s) == 0 {
		return keep
	}
	limit := s[(len(s)-1)/2]
	for i, v := range steal {
		keep[i] = v <= limit
	}
	return keep
}

// quietMedian is the median of the values quiet keeps.
func quietMedian(vals []float64, steal []int64) float64 {
	var kept []float64
	for i, k := range quiet(steal) {
		if k {
			kept = append(kept, vals[i])
		}
	}
	return median(kept)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
