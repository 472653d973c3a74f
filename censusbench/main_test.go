package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestEveryWorkloadTiny runs every workload of BENCHMARK.json at a tiny
// scale, untraced and traced, and checks the results document: standard
// output is exactly one JSON line naming exactly the workload's metrics with
// their units, every value is finite, and the run reports its attempted and
// failed operations with no failure.
func TestEveryWorkloadTiny(t *testing.T) {
	def, err := readDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		for trace, want := range map[string][]metricDef{"0": def.EndToEnd, "1": def.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "1871", "--seconds", "0.5", "--trace", trace,
					"--scale", "0.1", "--workdir", t.TempDir(), "--benchmark", "../BENCHMARK.json"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
				}
				out := strings.TrimSuffix(stdout.String(), "\n")
				if strings.Contains(out, "\n") {
					t.Fatalf("standard output holds more than the results line:\n%s", out)
				}
				var doc map[string]json.RawMessage
				if err := json.Unmarshal([]byte(out), &doc); err != nil {
					t.Fatalf("results line does not parse: %v\n%s", err, out)
				}
				if len(doc) != 4 {
					t.Fatalf("results document has keys %v, want correct, attempted, failed, metrics", keys(doc))
				}
				var res result
				if err := json.Unmarshal([]byte(out), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d; stderr:\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is not finite: %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestBadArgumentsPrintNoResult checks that a run that cannot start exits
// non-zero and leaves standard output empty.
func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no_such_workload"},
		{"--workload", "pair_link", "--trace", "2"},
		{"--workload", "pair_link", "--benchmark", "missing.json"},
	} {
		var stdout, stderr bytes.Buffer
		args = append(args, "--workdir", t.TempDir())
		if !contains(args, "--benchmark") {
			args = append(args, "--benchmark", "../BENCHMARK.json")
		}
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no output", args, code, stdout.String())
		}
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3, err := quartiles(c.in)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.in, q1, q3, err, c.q1, c.q3)
		}
	}
}
