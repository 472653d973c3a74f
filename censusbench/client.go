package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"censuslink/internal/linkage"
	"censuslink/internal/server"
)

// readMix weights the /v1 read routes like cmd/loadgen's default mix, a
// read-heavy analytical client.
var readMix = []struct {
	route  string
	weight int
}{
	{"records", 4}, {"groups", 2}, {"patterns", 2}, {"timelines", 1},
	{"household_timeline", 2}, {"record_lifecycle", 2}, {"years", 1},
}

// sampleIDs is how many record and household IDs discovery samples from
// the first pair for the drill-down routes (loadgen's default).
const sampleIDs = 8

// target is one concrete read URL of a route.
type target struct {
	route string
	path  string
}

// live is a server.Server mounted on a loopback listener.
type live struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan struct{}
}

func serve(srv *server.Server) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &live{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.http.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

// close stops the listener, drops open connections (the watch stream among
// them), aborts the server's pipeline work and waits for Serve to return.
func (l *live) close() {
	l.srv.Abort()
	_ = l.http.Close()
	<-l.done
}

// client issues the benchmark's requests; at most conns connections are
// open at once, matching the number of concurrent clients.
type client struct {
	hc   *http.Client
	base string
	b    *bench
}

func newClient(b *bench, base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base, b: b}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// response is what the benchmark keeps of one exchange.
type response struct {
	status int
	etag   string
	body   []byte
	start  time.Time
	dur    time.Duration
}

// do sends one request, reads the whole body and records a span named
// "http.<name>". Transport errors come back as err.
func (c *client) do(ctx context.Context, method, path, name string, hdr http.Header, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	id := c.b.tr.start("http."+name, -1)
	defer c.b.tr.end(id)
	r := response{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.dur = time.Since(r.start)
	r.status = resp.StatusCode
	r.etag = resp.Header.Get("ETag")
	return r, err
}

// getJSON fetches path, expecting 200, and decodes the body into v. It
// counts as one operation.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	r, err := c.do(ctx, "GET", path, "discover", nil, nil)
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %.200s", path, r.status, r.body)
	}
	if err == nil {
		err = json.Unmarshal(r.body, v)
	}
	c.b.op(err)
	return err
}

// yearsDoc is the body of GET /v1/years.
type yearsDoc struct {
	Years []int `json:"years"`
	Pairs []struct {
		Old int `json:"old"`
		New int `json:"new"`
	} `json:"pairs"`
}

// discover builds the read targets the way cmd/loadgen does: three record
// pages, the group links and the patterns of every pair, the timelines
// index twice, and drill-downs on IDs sampled from the first pair.
func (c *client) discover(ctx context.Context) (map[string][]target, error) {
	var years yearsDoc
	if err := c.getJSON(ctx, "/v1/years", &years); err != nil {
		return nil, err
	}
	if len(years.Pairs) == 0 {
		return nil, fmt.Errorf("the server reports no year pairs")
	}
	t := map[string][]target{
		"years":     {{"years", "/v1/years"}},
		"timelines": {{"timelines", "/v1/timelines"}, {"timelines", "/v1/timelines?min_span=2"}},
	}
	for _, p := range years.Pairs {
		rec := fmt.Sprintf("/v1/links/%d/%d/records", p.Old, p.New)
		t["records"] = append(t["records"], target{"records", rec}, target{"records", rec + "?limit=50"},
			target{"records", rec + "?limit=50&offset=50"})
		t["groups"] = append(t["groups"], target{"groups", fmt.Sprintf("/v1/links/%d/%d/groups", p.Old, p.New)})
		t["patterns"] = append(t["patterns"], target{"patterns", fmt.Sprintf("/v1/evolution/%d/%d/patterns", p.Old, p.New)})
	}
	first := years.Pairs[0]
	var recs struct {
		Links []servedRecord `json:"record_links"`
	}
	if err := c.getJSON(ctx, fmt.Sprintf("/v1/links/%d/%d/records?limit=%d", first.Old, first.New, sampleIDs), &recs); err != nil {
		return nil, err
	}
	for _, l := range recs.Links {
		t["record_lifecycle"] = append(t["record_lifecycle"],
			target{"record_lifecycle", fmt.Sprintf("/v1/records/%d/%s/lifecycle", first.Old, l.Old)})
	}
	var groups struct {
		Links []linkage.GroupLink `json:"group_links"`
	}
	if err := c.getJSON(ctx, fmt.Sprintf("/v1/links/%d/%d/groups?limit=%d", first.Old, first.New, sampleIDs), &groups); err != nil {
		return nil, err
	}
	for _, g := range groups.Links {
		t["household_timeline"] = append(t["household_timeline"],
			target{"household_timeline", fmt.Sprintf("/v1/households/%d/%s/timeline", first.Old, g.Old)})
	}
	for _, m := range readMix {
		if len(t[m.route]) == 0 {
			return nil, fmt.Errorf("discovery found no targets for %s", m.route)
		}
	}
	return t, nil
}

// picker draws targets from the weighted mix with its own seeded source, so
// the same seed replays the same request sequence.
type picker struct {
	rng     *rand.Rand
	targets map[string][]target
	total   int
}

func newPicker(targets map[string][]target, seed int64) *picker {
	p := &picker{rng: rand.New(rand.NewSource(seed)), targets: targets}
	for _, m := range readMix {
		p.total += m.weight
	}
	return p
}

func (p *picker) next() target {
	n := p.rng.Intn(p.total)
	for _, m := range readMix {
		if n < m.weight {
			ts := p.targets[m.route]
			return ts[p.rng.Intn(len(ts))]
		}
		n -= m.weight
	}
	panic("unreachable: weights sum to total")
}

// sample is one completed read.
type sample struct {
	route string
	start time.Time
	dur   time.Duration
	bytes int
}

// loop runs one closed-loop client until stop closes: it sends its next
// request only after the previous answer is read. With conditional set it
// sends If-None-Match with the target's validator and expects 304;
// otherwise it expects a full 200 JSON body.
func (c *client) loop(ctx context.Context, p *picker, etags map[string]string, conditional bool, stop <-chan struct{}) []sample {
	var out []sample
	for {
		select {
		case <-stop:
			return out
		default:
		}
		t := p.next()
		var hdr http.Header
		want, name := http.StatusOK, t.route
		if conditional {
			hdr = http.Header{"If-None-Match": {etags[t.path]}}
			want, name = http.StatusNotModified, "not_modified"
		}
		r, err := c.do(ctx, "GET", t.path, name, hdr, nil)
		if err == nil && r.status != want {
			err = fmt.Errorf("GET %s: status %d, want %d", t.path, r.status, want)
		}
		if err == nil && !conditional && !json.Valid(r.body) {
			err = fmt.Errorf("GET %s: body is not JSON", t.path)
		}
		c.b.op(err)
		if err == nil {
			out = append(out, sample{route: t.route, start: r.start, dur: r.dur, bytes: len(r.body)})
		}
	}
}

// paced is an open-loop client: it sends one request every 1/rate seconds
// until stop closes and times each from when it was due, so a stall also
// counts against the requests it delays. A request whose turn has passed
// goes out at once.
func (c *client) paced(ctx context.Context, p *picker, rate float64, stop <-chan struct{}) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	var out []sample
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		wait := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			wait.Stop()
			return out
		case <-wait.C:
		}
		t := p.next()
		r, err := c.do(ctx, "GET", t.path, t.route, nil, nil)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d, want 200", t.path, r.status)
		}
		c.b.op(err)
		if err == nil {
			out = append(out, sample{route: t.route, start: due, dur: r.start.Add(r.dur).Sub(due), bytes: len(r.body)})
		}
	}
}

// runClients runs n closed-loop clients for d and returns their samples
// and the measured wall time.
func (c *client) runClients(ctx context.Context, n int, d time.Duration, targets map[string][]target,
	etags map[string]string, conditional bool, seed int64) ([]sample, time.Duration) {
	stop := make(chan struct{})
	results := make([][]sample, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.loop(ctx, newPicker(targets, seed*7919+int64(i)), etags, conditional, stop)
		}(i)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0)
	var all []sample
	for _, r := range results {
		all = append(all, r...)
	}
	return all, elapsed
}

// fetchLinks pages through the record and group links the server serves
// for one pair.
func (c *client) fetchLinks(ctx context.Context, old, new int) ([]servedRecord, []linkage.GroupLink, error) {
	type page struct {
		Total int `json:"total"`
	}
	var records []servedRecord
	for {
		var doc struct {
			Links []servedRecord `json:"record_links"`
			Page  page           `json:"page"`
		}
		if err := c.getJSON(ctx, fmt.Sprintf("/v1/links/%d/%d/records?limit=1000&offset=%d", old, new, len(records)), &doc); err != nil {
			return nil, nil, err
		}
		records = append(records, doc.Links...)
		if len(doc.Links) == 0 || len(records) >= doc.Page.Total {
			break
		}
	}
	var groups []linkage.GroupLink
	for {
		var doc struct {
			Links []linkage.GroupLink `json:"group_links"`
			Page  page                `json:"page"`
		}
		if err := c.getJSON(ctx, fmt.Sprintf("/v1/links/%d/%d/groups?limit=1000&offset=%d", old, new, len(groups)), &doc); err != nil {
			return nil, nil, err
		}
		groups = append(groups, doc.Links...)
		if len(doc.Links) == 0 || len(groups) >= doc.Page.Total {
			break
		}
	}
	return records, groups, nil
}

// sseEvent is one event of the change feed.
type sseEvent struct {
	id   uint64
	name string
	data string
}

// replayWatch reads /v1/evolution/watch from Last-Event-ID 0 until the
// event with ID last has arrived, then hangs up.
func (c *client) replayWatch(ctx context.Context, last uint64) ([]sseEvent, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/v1/evolution/watch", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Last-Event-ID", "0")
	id := c.b.tr.start("http.evolution_watch", -1)
	defer c.b.tr.end(id)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.id >= last {
					return events, nil
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id, err = strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				return events, fmt.Errorf("watch: bad id line %q", line)
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("watch: %w", err)
	}
	return events, fmt.Errorf("watch: stream ended after %d events, before event %d", len(events), last)
}
