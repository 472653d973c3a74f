package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"text/tabwriter"
)

// repeatRuns runs each selected workload n times on the same seed in child
// processes of this binary and prints for every metric the median, the
// quartiles (as Python's statistics.quantiles(n=4) gives them) and the
// spread (q3-q1)/median against the metric's bound, so the spread is the
// run-to-run variation of one input. One more run on seed+1 checks the
// outputs on a second input; its figures are kept out of the spread. A run
// that fails, or reports a check failure, makes the exit code 1.
func repeatRuns(def *definition, only string, seed int64, n int, traced bool, childArgs []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "censusbench: %v\n", err)
		return 1
	}
	metrics := def.EndToEnd
	if traced {
		metrics = def.PerLayer
	}
	code := 0
	// child runs one workload on seed s and returns its results document.
	child := func(w workload, s int64) (result, bool) {
		args := append([]string{"--workload", w.name, "--seed", fmt.Sprint(s)}, childArgs...)
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		var res result
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "censusbench: %s seed %d: %v\n", w.name, s, err)
			code = 1
			return res, false
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "censusbench: %s seed %d: unreadable result: %v\n", w.name, s, err)
			code = 1
			return res, false
		}
		if !res.Correct || res.Failed != 0 {
			code = 1
		}
		return res, true
	}
	for _, w := range workloads {
		if only != "" && only != "all" && only != w.name {
			continue
		}
		values := map[string][]float64{}
		var shares []string
		for i := 0; i < n; i++ {
			res, ok := child(w, seed)
			if !ok {
				continue
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		second := "did not finish"
		if res, ok := child(w, seed+1); ok {
			second = fmt.Sprintf("correct=%v, failed/attempted %d/%d", res.Correct, res.Failed, res.Attempted)
		}
		fmt.Fprintf(stdout, "\n%s: %d runs on seed %d, failed/attempted per run: %s; check run on seed %d: %s\n",
			w.name, n, seed, strings.Join(shares, " "), seed+1, second)
		tw := tabwriter.NewWriter(stdout, 0, 2, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tspread\tbound\t")
		for _, m := range metrics {
			vs := values[m.Name]
			q1, q3, err := quartiles(vs)
			if err != nil {
				fmt.Fprintf(tw, "%s\t%s\t(%v)\t\t\t\t\t\n", m.Name, m.Unit, err)
				continue
			}
			med := median(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.3f", *m.Bound)
				if spread > *m.Bound/3 {
					bound += " WIDE"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.3f\t%s\t\n", m.Name, m.Unit, med, q1, q3, spread, bound)
		}
		tw.Flush()
	}
	return code
}
