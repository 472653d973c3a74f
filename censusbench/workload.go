package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"censuslink/internal/census"
	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/server"
	"censuslink/internal/store"
	"censuslink/internal/synth"
)

// workload is one input shape. Every workload runs the same phases — set-up,
// direct linkage, a cold server start, warm restarts, full-body reads,
// revalidation, census ingest beside a reader and a change-feed replay —
// so every end-to-end metric has a value on every workload; the shapes put
// the weight on different layers.
type workload struct {
	name string
	// scale is the synth population scale of the served and ingested
	// censuses (1.0 is the paper's size).
	scale float64
	// served are the census years the server starts with; ingest are the
	// years POSTed to it afterwards, in order.
	served, ingest []int
	// headline, when set, is the census pair whose direct linkage
	// link_cpu_s and the F1s measure, in headlinePops populations of its
	// own at headlineScale, each linked once. When unset they measure the
	// direct linkage of every pair of the series.
	headline      [2]int
	headlineScale float64
}

// headlinePops is the number of independent populations the headline pair
// is linked in. A single pair's linkage cost depends on its seed (see
// districts); summing two independent pairs halves its relative variance, where
// linking one pair twice repeats its cost to within a percent.
const headlinePops = 2

// headlineSeed is the seed of the k-th headline population of a run.
func headlineSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

var workloads = []workload{
	{name: "pair_link", scale: 0.05, served: []int{1851, 1861, 1871, 1881}, ingest: []int{1891, 1901},
		headline: [2]int{1871, 1881}, headlineScale: 0.1},
	{name: "ingest_under_read", scale: 0.05, served: []int{1851, 1861, 1871, 1881}, ingest: []int{1891, 1901}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) years() []int { return append(append([]int(nil), w.served...), w.ingest...) }

const (
	setupReps = 15 // set-ups per run; setup_s is their median
	// readShare is the share of --seconds spent in the full-body read
	// phase; the rest goes to revalidation.
	readShare   = 0.6
	restartReps = 31 // warm restarts per run; restart_s is their median
	// ingestReadRate is the reader's fixed request rate during ingest: a
	// tenth of what two closed-loop clients complete, so the reads observe
	// the ingest without taking the cores from it.
	ingestReadRate = 250
)

// bench is the state of one run.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	scale   float64 // multiplier on w.scale; 1 at the reference scales
	tr      *tracer // nil when untraced
	dir     string  // scratch directory of this run
	log     io.Writer
	cfg     linkage.Config
	clients int

	attempted, failed atomic.Int64
	logMu             sync.Mutex // op logs from the client goroutines too

	e2e   map[string]float64 // end-to-end metrics
	layer map[string]float64 // per-layer metrics (traced runs)
}

// op counts one attempted operation and, when err is set, one failure.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err == nil {
		return
	}
	b.failed.Add(1)
	b.logMu.Lock()
	defer b.logMu.Unlock()
	fmt.Fprintf(b.log, "censusbench: FAIL: %v\n", err)
}

// check counts one correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		b.op(nil)
		return
	}
	b.op(fmt.Errorf(format, args...))
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "censusbench: %s seed %d: "+format+"\n", append([]any{b.w.name, b.seed}, args...)...)
}

// cost is the wall time and the process CPU time of a piece of work, in
// seconds.
type cost struct{ wall, cpu float64 }

func (c cost) add(o cost) cost { return cost{c.wall + o.wall, c.cpu + o.cpu} }

// timed runs f inside a span and returns what it cost.
func (b *bench) timed(name string, f func() error) (cost, error) {
	id := b.tr.start(name, -1)
	c0, t0 := cpuSeconds(), time.Now()
	err := f()
	c := cost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	b.tr.end(id)
	return c, err
}

// medians returns the median wall time and the median CPU time of cs.
func medians(cs []cost) cost {
	wall, cpu := make([]float64, len(cs)), make([]float64, len(cs))
	for i, c := range cs {
		wall[i], cpu[i] = c.wall, c.cpu
	}
	return cost{median(wall), median(cpu)}
}

// inputs are the censuses of one set-up, read back through census.
type inputs struct {
	byYear   map[int]*census.Dataset
	csv      map[int][]byte       // the CSV file of every ingested year
	headline [][2]*census.Dataset // the headline pair of each headline population
}

func (in inputs) series(years []int) *census.Series {
	ds := make([]*census.Dataset, len(years))
	for i, y := range years {
		ds[i] = in.byYear[y]
	}
	return census.NewSeries(ds...)
}

// setupOnce generates the censuses, writes each as CSV and reads it back.
func (b *bench) setupOnce(i int) (inputs, error) {
	in := inputs{csv: map[int][]byte{}}
	dir := filepath.Join(b.dir, fmt.Sprintf("csv%d", i))
	var err error
	if in.byYear, err = b.population(b.w.scale, b.w.years(), b.seed, dir); err != nil {
		return in, err
	}
	for _, y := range b.w.ingest {
		data, err := os.ReadFile(filepath.Join(dir, census.SeriesFileName(y)))
		if err != nil {
			return in, err
		}
		in.csv[y] = data
	}
	for k := 0; b.w.headline[0] != 0 && k < headlinePops; k++ {
		h := b.w.headline[:]
		byYear, err := b.population(b.w.headlineScale, h, headlineSeed(b.seed, k), filepath.Join(dir, fmt.Sprint("headline", k)))
		if err != nil {
			return in, err
		}
		in.headline = append(in.headline, [2]*census.Dataset{byYear[h[0]], byYear[h[1]]})
	}
	return in, nil
}

// districts is the number of independently simulated districts that make
// up every population, each at a districts-th of its scale. One simulated
// population's linkage cost depends on its seed far more than the average
// of several does: on the headline pair at scale 0.1, four seeds cost
// 9.2-18.4 s of CPU time as one district and 13.5-15.3 s as four.
const districts = 4

// population generates a synth population from seed at scale (times the
// run's scale multiplier) up to the last of years, writes each of years as
// CSV into dir and reads it back through census.ReadCSV.
func (b *bench) population(scale float64, years []int, seed int64, dir string) (map[int]*census.Dataset, error) {
	cfg := synth.TestConfig(scale*b.scale/districts, seed)
	cfg.Districts = districts
	cfg.Years = nil
	for _, y := range synth.PaperYears {
		if y <= years[len(years)-1] {
			cfg.Years = append(cfg.Years, y)
		}
	}
	var gen *census.Series
	if _, err := b.timed("synth.Generate", func() (err error) { gen, err = synth.Generate(cfg); return err }); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	byYear := map[int]*census.Dataset{}
	for _, y := range years {
		d := gen.Dataset(y)
		if d == nil {
			return nil, fmt.Errorf("synth produced no %d census", y)
		}
		path := filepath.Join(dir, census.SeriesFileName(y))
		if _, err := b.timed("census.WriteCSV", func() error { return writeCSV(path, d) }); err != nil {
			return nil, err
		}
		_, err := b.timed("census.ReadCSV", func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			byYear[y], err = census.ReadCSV(bufio.NewReader(f), y)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("read back %d: %w", y, err)
		}
	}
	return byYear, nil
}

func writeCSV(path string, d *census.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := census.WriteCSV(w, d); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore records a span around every snapshot load and save the
// server or the series linker makes.
type tracedStore struct {
	s  *store.Store
	tr *tracer
}

func (t tracedStore) LoadResult(h string, old, new *census.Dataset) (*linkage.Result, error) {
	id := t.tr.start("store.LoadResult", -1)
	defer t.tr.end(id)
	return t.s.LoadResult(h, old, new)
}

func (t tracedStore) SaveResult(h string, old, new *census.Dataset, res *linkage.Result) error {
	id := t.tr.start("store.SaveResult", -1)
	defer t.tr.end(id)
	return t.s.SaveResult(h, old, new, res)
}

func (b *bench) openStore(name string) (linkage.ResultStore, error) {
	st, err := store.Open(filepath.Join(b.dir, name))
	if err != nil {
		return nil, err
	}
	if b.tr == nil {
		return st, nil
	}
	return tracedStore{s: st, tr: b.tr}, nil
}

// run executes every phase of the workload.
func (b *bench) run(ctx context.Context) error {
	b.e2e, b.layer = map[string]float64{}, map[string]float64{}
	b.cfg = linkage.DefaultConfig()

	// Set-up: generate, write as CSV, read back; repeated, median kept.
	b.tr.beginPhase("setup")
	var in inputs
	var setups []cost
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from the same collected heap
		d, err := b.timed("setup", func() (err error) { in, err = b.setupOnce(i); return err })
		b.op(err)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
	}
	setup := medians(setups)
	b.e2e["setup_s"], b.layer["wall.setup_s"] = setup.cpu, setup.wall
	full := in.series(b.w.years())
	served := in.series(b.w.served)
	pairs := full.Pairs()
	b.logf("set-up %.3fs CPU, %d censuses, %d records", b.e2e["setup_s"], len(full.Datasets), countRecords(full))

	heap := startHeapSampler(5 * time.Millisecond)
	heapStopped := false
	defer func() {
		if !heapStopped {
			heap.peakMB()
		}
	}()

	// Direct linkage of every pair: the reference the server is checked
	// against, and the link_cpu_s / F1 figures unless the workload has a
	// headline pair.
	b.tr.beginPhase("link")
	refs, link, err := b.linkAll(ctx, pairs, nil)
	if err != nil {
		return err
	}
	for i, p := range pairs {
		b.checkInvariants(refs[i], p)
	}
	measured, measuredRefs := pairs, refs
	if in.headline != nil {
		runtime.GC() // the headline linkage starts from a collected heap
		measured = in.headline
		if measuredRefs, link, err = b.linkAll(ctx, measured, nil); err != nil {
			return err
		}
		for i, p := range measured {
			b.checkInvariants(measuredRefs[i], p)
		}
	}
	b.e2e["link_cpu_s"], b.layer["wall.link_s"] = link.cpu, link.wall
	if b.tr != nil {
		// A further, traced pass; the tracing overhead is its CPU time over
		// the untraced one's.
		st := obs.NewStats(nil)
		traced, tracedCost, err := b.linkAll(ctx, measured, st)
		if err != nil {
			return err
		}
		for i := range measuredRefs {
			b.check(sameResult(measuredRefs[i], traced[i]) == nil, "traced linkage of pair %d differs from untraced", i)
		}
		b.layerFromObs(st.Report(), tracedCost, link)
	}
	var recQ, grpQ confusion
	for i, p := range measured {
		r, g := quality(measuredRefs[i], buildTruth(p[0], p[1]))
		recQ.add(r)
		grpQ.add(g)
	}
	b.e2e["record_f1"], b.e2e["group_f1"] = recQ.f1(), grpQ.f1()
	if b.scale == 1 {
		b.check(recQ.f1() >= recordF1Floor, "record F1 %.4f below floor %.2f", recQ.f1(), recordF1Floor)
		b.check(grpQ.f1() >= groupF1Floor, "group F1 %.4f below floor %.2f", grpQ.f1(), groupF1Floor)
	}
	b.logf("link %.3fs CPU, %.3fs wall, record F1 %.4f, group F1 %.4f", link.cpu, link.wall, recQ.f1(), grpQ.f1())

	// A cold start on an empty store, then warm restarts from its store.
	b.tr.beginPhase("cold")
	rs, err := b.openStore("store")
	if err != nil {
		return err
	}
	newServer := func() (*server.Server, error) {
		return server.New(server.Config{Series: served, Linkage: b.cfg, Store: rs})
	}
	var srv *server.Server
	runtime.GC()
	cold, err := b.timed("server.start", func() (err error) {
		if srv, err = newServer(); err == nil {
			err = srv.Precompute(ctx)
		}
		return err
	})
	b.op(err)
	if err != nil {
		return fmt.Errorf("cold start: %w", err)
	}
	b.layer["server.series_cold_cpu_s"], b.layer["wall.series_cold_s"] = cold.cpu, cold.wall
	b.tr.beginPhase("restart")
	var restarts []cost
	for i := 0; i < restartReps; i++ {
		srv.Abort()
		runtime.GC()
		d, err := b.timed("server.start", func() (err error) {
			if srv, err = newServer(); err == nil {
				err = srv.Precompute(ctx)
			}
			return err
		})
		b.op(err)
		if err != nil {
			return fmt.Errorf("warm restart: %w", err)
		}
		restarts = append(restarts, d)
		hits, misses := srv.Stats().Total(obs.StoreHits), srv.Stats().Total(obs.StoreMisses)
		b.check(hits == int64(len(b.w.served)-1) && misses == 0,
			"warm restart loaded %d snapshots and missed %d, want %d and 0", hits, misses, len(b.w.served)-1)
	}
	restart := medians(restarts)
	b.e2e["restart_cpu_s"], b.layer["wall.restart_s"] = restart.cpu, restart.wall
	b.logf("cold start %.3fs CPU, restart %.4fs CPU", cold.cpu, restart.cpu)

	l, err := serve(srv)
	if err != nil {
		return err
	}
	defer l.close()
	c := newClient(b, l.base, b.clients)
	defer c.closeIdle()
	if err := b.serveAndIngest(ctx, c, refs, in); err != nil {
		return err
	}
	b.e2e["peak_heap_mb"] = heap.peakMB()
	heapStopped = true

	if b.tr != nil {
		return b.libraryCalls(ctx, in, pairs, refs)
	}
	return nil
}

// checkInvariants checks the properties of Algorithm 1 on one direct
// linkage result.
func (b *bench) checkInvariants(res *linkage.Result, p [2]*census.Dataset) {
	bad := invariants(res, p[0], p[1], b.cfg.Remainder.Delta)
	b.check(len(bad) == 0, "pair %d->%d: %s", p[0].Year, p[1].Year, strings.Join(bad, "; "))
}

func countRecords(s *census.Series) int {
	n := 0
	for _, d := range s.Datasets {
		n += len(d.Records())
	}
	return n
}

// linkAll runs LinkContext on every pair, with st as the obs collector
// when set, and returns the results and their summed cost.
func (b *bench) linkAll(ctx context.Context, pairs [][2]*census.Dataset, st *obs.Stats) ([]*linkage.Result, cost, error) {
	cfg := b.cfg
	cfg.Obs = st
	refs := make([]*linkage.Result, len(pairs))
	var total cost
	for i, p := range pairs {
		d, err := b.timed("linkage.LinkContext", func() (err error) {
			refs[i], err = linkage.LinkContext(ctx, p[0], p[1], cfg)
			return err
		})
		b.op(err)
		if err != nil {
			return nil, total, fmt.Errorf("link %d->%d: %w", p[0].Year, p[1].Year, err)
		}
		total = total.add(d)
	}
	return refs, total, nil
}

// linkStages are the obs stage timers inside LinkContext.
var linkStages = []string{"build_graphs", "compile", "prematch", "candidate_groups", "subgraph_match", "selection", "remainder"}

// layerFromObs derives the linkage, hgraph, compare and block metrics of
// the traced direct linkage from its obs report.
func (b *bench) layerFromObs(r *obs.Report, traced, untraced cost) {
	stage := func(n string) float64 { return r.Stages[n].TotalNS.Seconds() }
	count := func(n string) float64 { return float64(r.Counters[n]) }
	staged := 0.0
	for _, n := range linkStages {
		staged += stage(n)
	}
	hits, misses := count(obs.SimCacheHits), count(obs.SimCacheMisses)
	for k, v := range map[string]float64{
		"hgraph.build_graphs_s":      stage("build_graphs"),
		"compare.compile_s":          stage("compile"),
		"compare.sim_cache_hits":     hits,
		"compare.sim_cache_misses":   misses,
		"compare.memo_hit_ratio":     hits / max(hits+misses, 1),
		"compare.pruned_comparisons": count(obs.PrunedComparisons),
		"block.blocking_pairs":       count(obs.BlockingPairs),
		"linkage.prematch_s":         stage("prematch"),
		"linkage.candidate_groups_s": stage("candidate_groups"),
		"linkage.subgraph_match_s":   stage("subgraph_match"),
		"linkage.selection_s":        stage("selection"),
		"linkage.remainder_s":        stage("remainder"),
		"linkage.stage_share":        staged / traced.wall,
		"linkage.rounds":             float64(len(r.Iterations)),
		"linkage.pairs_compared":     count(obs.PairsCompared),
		"linkage.cluster_labels":     count(obs.ClusterLabels),
		"linkage.group_pairs":        count(obs.GroupPairs),
		"linkage.subgraphs":          count(obs.Subgraphs),
		"linkage.record_links":       count(obs.RecordLinks),
		"linkage.group_links":        count(obs.GroupLinks),
		"trace.link_cpu_s":           traced.cpu,
		"trace.link_overhead":        traced.cpu / untraced.cpu,
	} {
		b.layer[k] = v
	}
}

// ingestAck is the body of a 201 from POST /v1/census.
type ingestAck struct {
	Year        int    `json:"year"`
	OldYear     int    `json:"old_year"`
	Years       []int  `json:"years"`
	RecordLinks int    `json:"record_links"`
	GroupLinks  int    `json:"group_links"`
	LastEventID uint64 `json:"last_event_id"`
}

// serveAndIngest runs the HTTP phases against the warm server: link
// identity, full-body reads, revalidation, ingest beside a reader and the
// change-feed replay.
func (b *bench) serveAndIngest(ctx context.Context, c *client, refs []*linkage.Result, in inputs) error {
	b.tr.beginPhase("discover")
	targets, err := c.discover(ctx)
	if err != nil {
		return fmt.Errorf("discovery: %w", err)
	}
	nServed := len(b.w.served) - 1
	b.verifyServed(ctx, c, refs, 0, nServed)

	// Prime: one full read of every target, keeping its validator.
	etags := map[string]string{}
	for _, ts := range targets {
		for _, t := range ts {
			r, err := c.do(ctx, "GET", t.path, "prime", nil, nil)
			if err == nil && (r.status != http.StatusOK || r.etag == "") {
				err = fmt.Errorf("prime GET %s: status %d, etag %q", t.path, r.status, r.etag)
			}
			b.op(err)
			etags[t.path] = r.etag
		}
	}

	readDur := time.Duration(b.seconds * readShare * float64(time.Second))
	revalDur := time.Duration(b.seconds*float64(time.Second)) - readDur
	readPhase := b.tr.beginPhase("read")
	c0 := cpuSeconds()
	reads, el := c.runClients(ctx, b.clients, readDur, targets, nil, false, b.seed)
	readCPU := cpuSeconds() - c0
	lat := make([]float64, len(reads))
	bytes := 0
	for i, s := range reads {
		lat[i] = s.dur.Seconds() * 1e3
		bytes += s.bytes
	}
	b.e2e["read_cpu_us"] = readCPU / float64(max(len(reads), 1)) * 1e6
	b.layer["wall.read_rps"] = float64(len(reads)) / el.Seconds()
	b.layer["wall.read_p50_ms"] = quantile(lat, 0.5)
	b.layer["wall.read_p99_ms"] = quantile(lat, 0.99)
	b.logf("reads: %d in %.2fs, %.1fus CPU each, p50 %.3fms p99 %.3fms", len(reads), el.Seconds(),
		b.e2e["read_cpu_us"], b.layer["wall.read_p50_ms"], b.layer["wall.read_p99_ms"])

	revalPhase := b.tr.beginPhase("revalidate")
	c0 = cpuSeconds()
	revals, el := c.runClients(ctx, b.clients, revalDur, targets, etags, true, b.seed+1)
	b.e2e["revalidate_cpu_us"] = (cpuSeconds() - c0) / float64(max(len(revals), 1)) * 1e6
	b.layer["wall.revalidate_rps"] = float64(len(revals)) / el.Seconds()
	b.logf("revalidations: %d in %.2fs, %.1fus CPU each", len(revals), el.Seconds(), b.e2e["revalidate_cpu_us"])

	// Ingest beside one reader sending at a fixed rate.
	b.tr.beginPhase("ingest")
	stop := make(chan struct{})
	var bg []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bg = c.paced(ctx, newPicker(targets, b.seed*7919+97), ingestReadRate, stop)
	}()
	validator := targets["records"][0].path
	var windows [][2]time.Time
	var lastEvent uint64
	var ingest cost
	ingestErr := func() error {
		for k, y := range b.w.ingest {
			before, err := c.do(ctx, "GET", validator, "validator", nil, nil)
			if err == nil && before.status != http.StatusOK {
				err = fmt.Errorf("validator GET: status %d", before.status)
			}
			b.op(err)
			if err != nil {
				return err
			}
			c0 := cpuSeconds()
			r, err := c.do(ctx, "POST", fmt.Sprintf("/v1/census?year=%d", y), "census_ingest",
				http.Header{"Content-Type": {"text/csv"}}, in.csv[y])
			var ack ingestAck
			if err == nil && r.status != http.StatusCreated {
				err = fmt.Errorf("POST /v1/census?year=%d: status %d: %.200s", y, r.status, r.body)
			}
			if err == nil {
				err = json.Unmarshal(r.body, &ack)
			}
			b.op(err)
			if err != nil {
				return err
			}
			ingest = ingest.add(cost{wall: r.dur.Seconds(), cpu: cpuSeconds() - c0})
			windows = append(windows, [2]time.Time{r.start, r.start.Add(r.dur)})
			ref := refs[nServed+k]
			b.check(ack.Year == y && ack.RecordLinks == len(ref.RecordLinks) && ack.GroupLinks == len(ref.GroupLinks),
				"ingest %d answered year %d with %d/%d links, direct linkage has %d/%d",
				y, ack.Year, ack.RecordLinks, ack.GroupLinks, len(ref.RecordLinks), len(ref.GroupLinks))
			b.check(ack.LastEventID > lastEvent, "ingest %d: last_event_id %d does not advance past %d", y, ack.LastEventID, lastEvent)
			lastEvent = ack.LastEventID
			after, err := c.do(ctx, "GET", validator, "validator", http.Header{"If-None-Match": {before.etag}}, nil)
			if err == nil && after.status != http.StatusOK {
				err = fmt.Errorf("validator taken before ingest %d answered %d after it, want 200", y, after.status)
			}
			b.op(err)
		}
		return nil
	}()
	close(stop)
	wg.Wait()
	if ingestErr != nil {
		return fmt.Errorf("ingest: %w", ingestErr)
	}
	var during []float64
	for _, s := range bg {
		end := s.start.Add(s.dur)
		for _, w := range windows {
			if s.start.Before(w[1]) && end.After(w[0]) {
				during = append(during, s.dur.Seconds()*1e3)
				break
			}
		}
	}
	b.e2e["ingest_cpu_s"], b.layer["wall.ingest_s"] = ingest.cpu, ingest.wall
	b.logf("ingest %.3fs CPU, %.3fs wall, %d overlapping reads, p50 %.3fms", ingest.cpu, ingest.wall, len(during), quantile(during, 0.5))

	// After the ingests: the years, the new pairs' links and the feed.
	b.tr.beginPhase("after_ingest")
	var years yearsDoc
	if err := c.getJSON(ctx, "/v1/years", &years); err == nil {
		b.check(reflect.DeepEqual(years.Years, b.w.years()), "/v1/years lists %v, want %v", years.Years, b.w.years())
	}
	b.verifyServed(ctx, c, refs, nServed, len(refs))
	events, err := c.replayWatch(ctx, lastEvent)
	b.op(err)
	b.checkFeed(events)

	if b.tr != nil {
		b.layer["server.not_modified_p50_ms"] = median(b.tr.durations("http.not_modified", revalPhase)) * 1e3
		for _, m := range readMix {
			b.layer["server."+m.route+"_p50_ms"] = median(b.tr.durations("http."+m.route, readPhase)) * 1e3
		}
		b.layer["server.response_kb_mean"] = float64(bytes) / float64(max(len(reads), 1)) / 1024
		b.layer["server.watch_events"] = float64(len(events))
		b.layer["server.ingest_reads"] = float64(len(during))
		b.layer["server.ingest_read_p50_ms"] = quantile(during, 0.5)
		n := 0
		b.tr.mu.Lock()
		for _, s := range b.tr.spans {
			if strings.HasPrefix(s.Name, "http.") {
				n++
			}
		}
		b.tr.mu.Unlock()
		b.layer["server.requests"] = float64(n)
	}
	return nil
}

// verifyServed checks that the links served for pairs [from, to) of the
// full series equal the direct linkage of those pairs.
func (b *bench) verifyServed(ctx context.Context, c *client, refs []*linkage.Result, from, to int) {
	years := b.w.years()
	for i := from; i < to; i++ {
		recs, groups, err := c.fetchLinks(ctx, years[i], years[i+1])
		if err != nil {
			continue // counted by getJSON
		}
		err = sameLinks(refs[i], recs, groups)
		b.check(err == nil, "served links of %d->%d: %v", years[i], years[i+1], err)
	}
}

// checkFeed checks the replayed change feed: one census_ingested event per
// ingest, for the ingested years in order, and strictly rising IDs.
func (b *bench) checkFeed(events []sseEvent) {
	var ingested []int
	var prev uint64
	rising := true
	for _, ev := range events {
		if ev.id <= prev {
			rising = false
		}
		prev = ev.id
		if ev.name == "census_ingested" {
			var d struct {
				Year int `json:"year"`
			}
			if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
				b.check(false, "census_ingested event %d: %v", ev.id, err)
				continue
			}
			ingested = append(ingested, d.Year)
		}
	}
	b.check(rising, "watch event IDs do not rise monotonically")
	b.check(reflect.DeepEqual(ingested, b.w.ingest), "watch feed has census_ingested for %v, want %v", ingested, b.w.ingest)
}

// libraryCalls makes, in traced runs only, the library calls behind the
// server's series, store and evolution work, so the per-layer metrics of
// those modules come from spans around the benchmark's own calls.
func (b *bench) libraryCalls(ctx context.Context, in inputs, pairs [][2]*census.Dataset, refs []*linkage.Result) error {
	b.tr.beginPhase("library")
	served := in.series(b.w.served)
	nServed := len(b.w.served) - 1
	rs, err := b.openStore("series-store")
	if err != nil {
		return err
	}
	var series []*linkage.Result
	_, err = b.timed("linkage.LinkSeriesOpts", func() (err error) {
		series, err = linkage.LinkSeriesOpts(ctx, served, b.cfg, linkage.SeriesOptions{Store: rs})
		return err
	})
	b.op(err)
	if err != nil {
		return err
	}
	for i, r := range series {
		b.check(sameResult(refs[i], r) == nil, "LinkSeriesOpts pair %d differs from LinkContext", i)
	}
	next := in.byYear[b.w.ingest[0]]
	var appended *linkage.Result
	_, err = b.timed("linkage.LinkAppend", func() (err error) {
		appended, err = linkage.LinkAppend(ctx, served, next, b.cfg, linkage.SeriesOptions{Store: rs})
		return err
	})
	b.op(err)
	if err == nil {
		b.check(sameResult(refs[nServed], appended) == nil, "LinkAppend differs from LinkContext")
	}
	fp := b.cfg.Fingerprint()
	for i, p := range pairs[:nServed] {
		loaded, err := rs.LoadResult(fp, p[0], p[1])
		b.op(err)
		if err == nil {
			b.check(sameResult(refs[i], loaded) == nil, "stored snapshot of pair %d differs from LinkContext", i)
		}
	}
	for i, p := range pairs {
		b.timed("evolution.Analyze", func() error { evolution.Analyze(p[0], p[1], refs[i]); return nil })
	}
	var g *evolution.Graph
	_, err = b.timed("evolution.BuildGraph", func() (err error) { g, err = evolution.BuildGraph(served, refs[:nServed]); return err })
	b.op(err)
	if err != nil {
		return err
	}
	var tl []evolution.Timeline
	b.timed("evolution.PersonTimelines", func() error { tl = g.PersonTimelines(2); return nil })
	last := served.Datasets[len(served.Datasets)-1]
	for k, y := range b.w.ingest {
		next := in.byYear[y]
		b.timed("evolution.Clone", func() error { g = g.Clone(); return nil })
		_, err := b.timed("evolution.AppendYear", func() error { return g.AppendYear(last, next, refs[nServed+k]) })
		b.op(err)
		if err != nil {
			return err
		}
		b.timed("evolution.ExtendTimelines", func() error { tl = g.ExtendTimelines(tl); return nil })
		last = next
	}
	rebuilt, err := evolution.BuildGraph(in.series(b.w.years()), refs)
	b.op(err)
	if err == nil {
		b.check(reflect.DeepEqual(g.PatternCounts(), rebuilt.PatternCounts()),
			"appended evolution graph's pattern counts differ from a rebuild")
	}

	b.layer["linkage.series_link_s"] = b.tr.total("linkage.LinkSeriesOpts")
	b.layer["linkage.append_link_s"] = b.tr.total("linkage.LinkAppend")
	b.layer["evolution.analyze_s"] = b.tr.total("evolution.Analyze")
	b.layer["evolution.build_graph_s"] = b.tr.total("evolution.BuildGraph")
	b.layer["evolution.timelines_s"] = b.tr.total("evolution.PersonTimelines")
	b.layer["evolution.append_year_s"] = b.tr.total("evolution.Clone") + b.tr.total("evolution.AppendYear") +
		b.tr.total("evolution.ExtendTimelines")
	b.layer["store.save_s"] = median(b.tr.durations("store.SaveResult", 0))
	b.layer["store.load_s"] = median(b.tr.durations("store.LoadResult", 0))
	b.layer["synth.generate_s"] = median(b.tr.durations("synth.Generate", 0))
	b.layer["census.read_csv_s"] = b.tr.total("census.ReadCSV") / setupReps
	kb, err := meanSnapshotKB(filepath.Join(b.dir, "series-store"))
	b.op(err)
	b.layer["store.snapshot_kb"] = kb
	return nil
}

func meanSnapshotKB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	n := 0
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "snap_") || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
		n++
	}
	if n == 0 {
		return 0, errors.New("the series store holds no snapshots")
	}
	return float64(total) / float64(n) / 1024, nil
}

// clientCount is the number of concurrent clients: two, or nproc if less.
func clientCount() int { return min(2, runtime.NumCPU()) }
