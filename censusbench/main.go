// Command censusbench is the censuslink benchmark. It generates synthetic
// censuses from a seed, drives the linkage library and an in-process
// linkserver over loopback HTTP through one workload, checks every output
// against a computation made apart from the program, and prints one JSON
// results document as the last line of standard output:
//
//	censusbench --workload pair_link --seed 1871 --seconds 3 --trace 0
//
// With --trace 0 the document holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, derived from spans recorded around the
// benchmark's calls into each module and from the linkage obs report, and
// the spans are written to --workdir/trace. --repeat N runs every workload
// (or the one named) N times on --seed in child processes, prints each
// metric's median, quartiles and spread against its bound in
// BENCHMARK.json, and runs the correctness checks once more on seed+1. Diagnostics go to standard error. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the document printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDeadline keeps a run inside the three minutes a run may take.
const runDeadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("censusbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pair_link or ingest_under_read (all with --repeat)")
	seed := fs.Int64("seed", 1871, "seed of the generated censuses and of the request sequence")
	seconds := fs.Float64("seconds", 4, "length of the timed read and revalidation phases")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	scale := fs.Float64("scale", 1, "multiplier on every workload's census scale (tests use a tiny one; F1 floors apply only at 1)")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files and traces")
	repeat := fs.Int("repeat", 0, "run each workload this many times on --seed, print medians and spreads, and check seed+1 once more")
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition read for metric names, units and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := readDefinition(*spec)
	if err != nil {
		fmt.Fprintf(stderr, "censusbench: %v\n", err)
		return 2
	}
	if *repeat > 0 {
		child := []string{"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace),
			"--scale", fmt.Sprint(*scale), "--workdir", *workdir, "--benchmark", *spec}
		return repeatRuns(def, *name, *seed, *repeat, *trace == 1, child, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "censusbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "censusbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 || *scale <= 0 {
		fmt.Fprintf(stderr, "censusbench: --seconds and --scale must be positive\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "censusbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "censusbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, seed: *seed, seconds: *seconds, scale: *scale, dir: dir, log: stderr, clients: clientCount()}
	if *trace == 1 {
		b.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, *seed, time.Now().UnixNano()))
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if err := b.run(ctx); err != nil {
		fmt.Fprintf(stderr, "censusbench: %s: %v\n", w.name, err)
		return 1
	}
	want, got := def.EndToEnd, b.e2e
	if b.tr != nil {
		want, got = def.PerLayer, b.layer
		path, err := b.tr.write(filepath.Join(*workdir, "trace"))
		if err != nil {
			fmt.Fprintf(stderr, "censusbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "censusbench: spans written to %s\n", path)
	}
	res := result{Correct: b.failed.Load() == 0, Attempted: b.attempted.Load(), Failed: b.failed.Load(),
		Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "censusbench: metric %s has no finite value (%v)\n", m.Name, v)
			return 1
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "censusbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// definition is the part of BENCHMARK.json the benchmark reads.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Bound *float64 `json:"bound"`
}

func readDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, errors.New("the benchmark definition lists no metrics")
	}
	return &d, nil
}
