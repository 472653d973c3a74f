package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one timed call the benchmark makes across a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one run in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	run   string
	t0    time.Time
	phase atomic.Int64 // default parent: the span of the current phase

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// start opens a span under parent (or under the current phase when parent
// is negative) and returns its ID; 0 means no span.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	if parent < 0 {
		parent = int(t.phase.Load())
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

// end closes the span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// beginPhase opens a phase span and makes it the default parent.
func (t *tracer) beginPhase(name string) int {
	id := t.start("phase."+name, 0)
	if t != nil {
		t.phase.Store(int64(id))
	}
	return id
}

// durations returns the durations in seconds of the closed spans with the
// given name, restricted to children of parent when parent > 0.
func (t *tracer) durations(name string, parent int) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && (parent <= 0 || s.Parent == parent) {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// total is the summed duration in seconds of the spans with the name.
func (t *tracer) total(name string) float64 {
	total := 0.0
	for _, d := range t.durations(name, 0) {
		total += d
	}
	return total
}

// write stores the spans as JSON lines in dir/<run>.jsonl.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// heapSampler tracks the highest Go heap in use (bytes in in-use heap
// spans, the runtime's HeapInuse) by reading runtime/metrics from its own
// goroutine, outside the code under test.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

var heapMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		samples[i].Name = name
	}
	read := func() {
		metrics.Read(samples)
		var inuse uint64
		for _, s := range samples {
			if s.Value.Kind() == metrics.KindUint64 {
				inuse += s.Value.Uint64()
			}
		}
		h.peak = max(h.peak, inuse)
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB (2^20 bytes).
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// cpuSeconds is the CPU time, user and system, that this process has used
// so far. Unlike wall time it leaves out the time a shared machine's
// hypervisor runs other guests on this one's cores, so work costs the same
// CPU time however busy the host is.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. It returns 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// the spreads the repeat mode prints match that computation.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("need at least two values, have %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(j int) float64 {
		m := n + 1
		k := j * m / 4
		if k < 1 {
			k = 1
		}
		if k > n-1 {
			k = n - 1
		}
		frac := float64(j*m-4*k) / 4
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(3), nil
}
