package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady runs two sets of untraced runs of each workload, one seed per run,
// on the same build, and prints for every end-to-end metric each set's
// median and quartiles, the spread (quartile distance over the median) and
// the gap between the two medians, next to the bound BENCHMARK.json gives
// the metric. It returns 1 if a spread other than setup_s's, or a gap in
// the worse direction, exceeds its bound, or if the failed shares differ.
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per set and workload")
	seconds := fs.Int("seconds", 10, "--seconds of each run")
	only := fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads")
	spansDir := fs.String("spans-dir", ".bench_build", "passed on to each run")
	fs.Parse(args)

	bounds := map[string]bound{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bj struct {
			EndToEnd []bound `json:"end_to_end"`
		}
		if err := json.Unmarshal(b, &bj); err != nil {
			fmt.Fprintf(os.Stderr, "steady: BENCHMARK.json: %v\n", err)
			return 2
		}
		for _, m := range bj.EndToEnd {
			bounds[m.Name] = m
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 2
	}
	status := 0
	for _, name := range strings.Split(*only, ",") {
		var sets [2]map[string][]float64
		var failShare [2][]string
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < *runs; i++ {
				seed := int64(1000*(s+1) + i)
				r, err := runChild(self, name, seed, *seconds, *spansDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", name, seed, err)
					return 1
				}
				if !r.Correct {
					fmt.Printf("%s seed %d: outputs failed their checks\n", name, seed)
					status = 1
				}
				failShare[s] = append(failShare[s], strconv.FormatFloat(float64(r.Failed)/float64(r.Attempted), 'g', -1, 64))
				for k, m := range r.Metrics {
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
		fmt.Printf("\n%s: %d runs per set, %d s each, failed share %v | %v\n", name, *runs, *seconds, failShare[0], failShare[1])
		fmt.Printf("  %-18s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %6s\n",
			"metric", "q1", "median", "q3", "spread", "q1", "median", "q3", "spread", "gap", "bound")
		for _, m := range endToEnd {
			var q [2][3]float64
			var spread [2]float64
			for s := range sets {
				q[s] = quartiles(sets[s][m.name])
				spread[s] = (q[s][2] - q[s][0]) / q[s][1]
			}
			gap := (q[1][1] - q[0][1]) / q[0][1]
			b, ok := bounds[m.name]
			verdict := ""
			if ok {
				worse := gap
				if b.Better == "higher" {
					worse = -gap
				}
				if worse > b.Bound || m.name != "setup_s" && max(spread[0], spread[1]) > b.Bound {
					verdict = " OUT"
					status = 1
				}
			}
			fmt.Printf("  %-18s %12.4g %12.4g %12.4g %6.1f%% | %12.4g %12.4g %12.4g %6.1f%% | %+6.1f%% %5.0f%%%s\n",
				m.name, q[0][0], q[0][1], q[0][2], spread[0]*100, q[1][0], q[1][1], q[1][2], spread[1]*100,
				gap*100, b.Bound*100, verdict)
		}
		if strings.Join(failShare[0], ",") != strings.Join(failShare[1], ",") {
			fmt.Printf("  failed shares differ between the sets\n")
			status = 1
		}
	}
	return status
}

type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runChild runs one untraced run and parses its last line.
func runChild(self, name string, seed int64, seconds int, spansDir string) (result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "-spans-dir", spansDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("last line: %w", err)
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is how the bounds are judged.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return [3]float64{}
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
