package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/query"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/store"
)

// serveInputs are the generated inputs of serve_mixed: artifact files
// that pre-populate the store (one corpus per endpoint family plus the
// first shard of the growing corpus), the remaining growing-corpus
// shards in their seed-drawn arrival order, and the read catalog.
type serveInputs struct {
	prepop     []string
	growing    [][]byte
	growingID  string
	growingCSV []byte
	corpora    []string   // corpus IDs; growingID is among them
	urls       [][]string // per corpus: distinct read URLs that answer 200
}

// genServeInputs runs the studies whose artifacts make up the store.
// Chip seeds derive from the workload seed; each corpus is a distinct
// (tool, chip config) pair.
func genServeInputs(b *bench, dir string) (*serveInputs, error) {
	s := b.size
	base := config.SmallChip().Seed + uint64(b.seed)*4096
	chip := func(off uint64) *config.Config {
		c := config.SmallChip()
		c.Seed = base + off
		return c
	}
	nproc := runtime.NumCPU()
	in := &serveInputs{}
	write := func(name string, a *results.Artifact) error {
		p := filepath.Join(dir, name+".json")
		in.prepop = append(in.prepop, p)
		return a.WriteFile(p)
	}
	for _, name := range []string{"sweep", "fig6", "trrstudy", "rowpress"} {
		a, err := experiments.Run(name, experiments.Options{Cfg: chip(0), Rows: s.serveRows, Parallel: nproc})
		if err != nil {
			return nil, err
		}
		if err := write(name, a); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.serveShards; i++ {
		a, err := experiments.Run("multichip", experiments.Options{Cfg: chip(1024), Rows: s.serveRows,
			Seeds: s.servePrepop, Shard: i, ShardCount: s.serveShards, Parallel: nproc})
		if err != nil {
			return nil, err
		}
		if err := write(fmt.Sprintf("multichip-%d", i), a); err != nil {
			return nil, err
		}
	}
	var arts []*results.Artifact
	var names []string
	for i := 0; i < s.serveGrowing; i++ {
		a, err := experiments.RunSlice("multichip", experiments.Options{Cfg: chip(2048), Rows: 1,
			Seeds: s.serveGrowing, Parallel: nproc}, i, i+1)
		if err != nil {
			return nil, err
		}
		body, err := a.MarshalIndented()
		if err != nil {
			return nil, err
		}
		in.growing = append(in.growing, body)
		arts = append(arts, a)
		names = append(names, fmt.Sprintf("growing-%d", i))
	}
	in.growingID = store.CorpusID(&arts[0].Meta)
	if err := write("growing-0", arts[0]); err != nil {
		return nil, err
	}
	merged, err := results.MergeShards(arts, names)
	if err != nil {
		return nil, err
	}
	if in.growingCSV, err = summaryCSV(merged); err != nil {
		return nil, err
	}
	// Shards arrive as chunks of a fleet landing slightly out of order:
	// each adjacent pair is swapped with probability 1/2, so a swapped
	// pair's first arrival waits as pending and its second is a gap fill
	// merging both. Keeping disorder local keeps every gap fill the same
	// size, so the ingest cost does not hinge on one giant late merge.
	rest := in.growing[1:]
	rng := rand.New(rand.NewSource(b.seed))
	for i := 0; i+1 < len(rest); i += 2 {
		if rng.Intn(2) == 0 {
			rest[i], rest[i+1] = rest[i+1], rest[i]
		}
	}
	in.growing = rest
	return in, in.buildCatalog(rng, s.serveKeys)
}

// buildCatalog lists, per corpus, up to keys distinct read URLs over the
// documented parameters (key, group-by, metric, points), keeping only
// those the query handler answers with 200 on the pre-populated store.
// keys stays below query.DefaultCacheEntries, so a cache miss comes
// from ingest invalidation and never from eviction.
func (in *serveInputs) buildCatalog(rng *rand.Rand, keys int) error {
	if keys >= query.DefaultCacheEntries {
		return fmt.Errorf("serve catalog of %d keys per corpus reaches the query cache size", keys)
	}
	st, err := store.Open("")
	if err != nil {
		return err
	}
	if _, err := st.IngestFiles(in.prepop...); err != nil {
		return err
	}
	h := query.New(st).Handler()
	axes := []string{"", "region", "channel", "region-channel", "point"}
	for _, id := range st.Corpora() {
		snap, _ := st.Snapshot(id)
		metrics := map[string]bool{}
		for _, g := range snap.Merged.Groups {
			for _, m := range g.Metrics {
				metrics[m.Name] = true
			}
		}
		var cands []string
		add := func(path string, kv ...string) {
			v := url.Values{"key": {id}}
			for i := 0; i+1 < len(kv); i += 2 {
				if kv[i+1] != "" {
					v.Set(kv[i], kv[i+1])
				}
			}
			cands = append(cands, path+"?"+v.Encode())
		}
		for _, gb := range axes {
			for _, p := range []string{"/v1/summary", "/v1/csv", "/v1/render"} {
				add(p, "group-by", gb)
			}
			for m := range metrics {
				for _, pts := range []string{"", "5", "17"} {
					add("/v1/distributions", "metric", m, "group-by", gb, "points", pts)
				}
			}
		}
		add("/v1/safety")
		add("/v1/trr")
		sort.Strings(cands)
		var ok []string
		for _, u := range cands {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, u, nil))
			if w.Code == http.StatusOK {
				ok = append(ok, u)
			}
		}
		if len(ok) == 0 {
			return fmt.Errorf("corpus %s answers no read", id)
		}
		rng.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
		in.corpora = append(in.corpora, id)
		in.urls = append(in.urls, ok[:min(keys, len(ok))])
	}
	return nil
}

// resultsd is one running resultsd process.
type resultsd struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startResultsd starts resultsd on a fresh store directory holding the
// given artifact files and waits for /healthz to answer 200.
func startResultsd(bin, dir string, files []string, logw io.Writer) (*resultsd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-store", dir, "-listen", addr, "-quiet"}, files...)...)
	cmd.Stderr = logw
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &resultsd{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(r.done) }()
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-r.done:
			return nil, fmt.Errorf("resultsd exited during start-up: %v", cmd.ProcessState)
		default:
		}
		if resp, err := c.Get(r.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.stop()
	return nil, fmt.Errorf("resultsd did not answer /healthz within 60s")
}

// stop drains resultsd with SIGTERM, killing it if the drain stalls,
// and waits for the process to end.
func (r *resultsd) stop() {
	r.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-r.done:
	case <-time.After(20 * time.Second):
		r.cmd.Process.Kill()
		<-r.done
	}
}

// readRec is one timed GET.
type readRec struct {
	phase   int           // 0 = nominal rate, 1 = peak rate
	lat     time.Duration // from the scheduled send time
	service time.Duration // from the actual send time
	lag     time.Duration // generator lateness: actual send − max(due, previous response)
	ok      bool
	render  bool
	bytes   int
}

// serveRun is the state of one serve_mixed timed pass.
type serveRun struct {
	b      *bench
	in     *serveInputs
	srv    *resultsd
	traced bool

	reads   []readRec
	ingests []float64     // ms from scheduled send
	floor   []float64     // /healthz service times, us
	peak    time.Duration // time spent in peak-rate blocks
	acked   atomic.Uint64 // growing corpus generation acknowledged by ingest

	mu       sync.Mutex
	failures []string
	bodies   map[bodyKey][]byte // first body per (ETag, encoding)

	// How often the conditional and gzip gates had something to check.
	notModified  int
	gzipCompared int
}

func (r *serveRun) fail(format string, args ...any) {
	r.mu.Lock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// readPlan is one scheduled GET.
type readPlan struct {
	due    time.Duration
	phase  int
	corpus int
	url    string
	gzip   bool
	inm    bool
}

// schedule draws the open-loop GET sequence: one-second blocks that
// alternate between the nominal and the peak rate, requests evenly
// spaced within a block. Alternating keeps both rates on the same mix of
// corpus sizes while the growing corpus fills up.
func (r *serveRun) schedule(rng *rand.Rand, blocks int) []readPlan {
	s := r.b.size
	growing := 0
	for i, id := range r.in.corpora {
		if id == r.in.growingID {
			growing = i
		}
	}
	var plan []readPlan
	for bi := 0; bi < blocks; bi++ {
		ph := bi % 2
		rate := []float64{s.nominalRPS, s.peakRPS}[ph]
		start := time.Duration(bi) * time.Second
		for k := 0; k < int(rate); k++ {
			c := growing
			if rng.Float64() >= growingShare {
				c = rng.Intn(len(r.in.corpora) - 1)
				if c >= growing {
					c++
				}
			}
			urls := r.in.urls[c]
			plan = append(plan, readPlan{
				due:    start + time.Duration(float64(k)/rate*float64(time.Second)),
				phase:  ph,
				corpus: c,
				url:    urls[rng.Intn(len(urls))],
				gzip:   rng.Float64() < 0.3,
				inm:    rng.Float64() < 0.25,
			})
		}
	}
	return plan
}

// growingShare is the fraction of reads aimed at the corpus that grows
// during the pass; the others read corpora that stay hot.
const growingShare = 0.15

// readLoop sends the GETs on one connection. A request due while the
// previous one is still out is sent as soon as it returns; its latency
// still counts from its scheduled time.
func (r *serveRun) readLoop(start time.Time, plan []readPlan) {
	c := newClient()
	etags := map[string]string{}
	lastGen := make([]uint64, len(r.in.corpora))
	seen := map[string]bool{}
	prevDone := start
	r.reads = make([]readRec, 0, len(plan))
	for k, p := range plan {
		due := start.Add(p.due)
		sleepUntil(due)
		floor := lastGen[p.corpus]
		if r.in.corpora[p.corpus] == r.in.growingID {
			floor = max(floor, r.acked.Load())
		}
		req, _ := http.NewRequest(http.MethodGet, r.srv.base+p.url, nil)
		if p.gzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		inm := ""
		if p.inm {
			inm = etags[p.url]
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
		}
		sent := time.Now()
		rec := readRec{phase: p.phase, lag: sent.Sub(maxTime(due, prevDone))}
		resp, err := c.Do(req)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		done := time.Now()
		prevDone = done
		rec.lat, rec.service, rec.bytes = done.Sub(due), done.Sub(sent), len(body)
		if err != nil {
			r.fail("GET %s: %v", p.url, err)
			r.reads = append(r.reads, rec)
			continue
		}
		etag := resp.Header.Get("Etag")
		gen, _ := strconv.ParseUint(resp.Header.Get("X-Generation"), 10, 64)
		switch {
		case resp.StatusCode == http.StatusNotModified:
			rec.ok = inm != "" && etag == inm
			r.notModified++
			if !rec.ok {
				r.fail("GET %s: 304 without a matching If-None-Match (sent %q, ETag %q)", p.url, inm, etag)
			}
		case resp.StatusCode == http.StatusOK:
			rec.ok = true
			etags[p.url] = etag
			r.keepBody(etag, resp.Header.Get("Content-Encoding"), body)
		default:
			r.fail("GET %s: HTTP %d", p.url, resp.StatusCode)
		}
		if rec.ok && gen < floor {
			rec.ok = false
			r.fail("GET %s: X-Generation %d below %d already observed", p.url, gen, floor)
		}
		lastGen[p.corpus] = max(lastGen[p.corpus], gen)
		key := fmt.Sprintf("%s@%d", p.url, gen)
		rec.render = !seen[key]
		seen[key] = true
		r.reads = append(r.reads, rec)
		if r.traced && k%16 == 0 {
			t := time.Now()
			if resp, err := c.Get(r.srv.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				r.floor = append(r.floor, us(time.Since(t)))
			}
		}
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

type bodyKey struct{ etag, enc string }

// keepBody keeps the first body seen per (ETag, encoding) and checks
// that later bodies under the same ETag have the same length.
func (r *serveRun) keepBody(etag, enc string, body []byte) {
	k := bodyKey{etag, enc}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.bodies[k]; ok {
		if len(prev) != len(body) {
			r.failures = append(r.failures, fmt.Sprintf("ETag %s (%q) served bodies of %d and %d bytes", etag, enc, len(prev), len(body)))
		}
		return
	}
	r.bodies[k] = body
}

// checkBodies inflates every gzip body and compares it with the
// identity body served under the same ETag.
func (r *serveRun) checkBodies() {
	for k, gz := range r.bodies {
		etag := k.etag
		if k.enc != "gzip" {
			continue
		}
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		var plain []byte
		if err == nil {
			plain, err = io.ReadAll(zr)
		}
		if err != nil {
			r.fail("ETag %s: gzip body does not inflate: %v", etag, err)
			continue
		}
		if id, ok := r.bodies[bodyKey{etag, ""}]; ok {
			r.gzipCompared++
			if !bytes.Equal(id, plain) {
				r.fail("ETag %s: gzip body inflates to different bytes than the identity body", etag)
			}
		}
	}
}

// ingestLoop POSTs the growing corpus's shards at a fixed cadence over
// the whole pass, on a connection of its own.
func (r *serveRun) ingestLoop(start time.Time, total time.Duration) {
	c := newClient()
	n := len(r.in.growing)
	for k, body := range r.in.growing {
		due := start.Add(time.Duration((float64(k) + 0.5) / float64(n) * float64(total)))
		sleepUntil(due)
		resp, err := c.Post(r.srv.base+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			r.fail("POST /v1/ingest: %v", err)
			continue
		}
		var res struct {
			Corpus string `json:"corpus"`
			Gen    uint64 `json:"generation"`
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		r.ingests = append(r.ingests, ms(time.Since(due)))
		if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(data, &res) != nil || res.Corpus != r.in.growingID {
			r.fail("POST /v1/ingest: HTTP %d: %.200s", resp.StatusCode, data)
			continue
		}
		for {
			old := r.acked.Load()
			if res.Gen <= old || r.acked.CompareAndSwap(old, res.Gen) {
				break
			}
		}
	}
}

// servePass runs the timed phases against a running resultsd and applies
// the correctness gates.
func servePass(b *bench, in *serveInputs, srv *resultsd, traced bool) *serveRun {
	s := b.size
	blocks := int(max(b.seconds, s.serveMinPhase) / time.Second)
	blocks += blocks % 2
	half := time.Duration(blocks/2) * time.Second
	r := &serveRun{b: b, in: in, srv: srv, traced: traced, peak: half, bodies: map[bodyKey][]byte{}}
	plan := r.schedule(rand.New(rand.NewSource(b.seed+1)), blocks)
	defer b.stealSince(cpuTicks())
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r.readLoop(start, plan) }()
	go func() { defer wg.Done(); r.ingestLoop(start, 2*half) }()
	wg.Wait()

	r.checkBodies()
	resp, err := newClient().Get(srv.base + "/v1/csv?key=" + url.QueryEscape(in.growingID))
	if err != nil {
		r.fail("final /v1/csv: %v", err)
	} else {
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, in.growingCSV) {
			r.fail("final /v1/csv of the growing corpus (HTTP %d) differs from the in-process merge of its shards", resp.StatusCode)
		}
	}
	b.attempted += len(r.reads) + len(r.in.growing) + 1
	return r
}

// report books the pass's failures and latency figures.
func (r *serveRun) report(b *bench) {
	s := b.size
	for i, f := range r.failures {
		if i < 20 {
			b.fail("%s", f)
		} else {
			b.failed++
		}
	}
	var nominal, peak, lags, hits, renders []float64
	good, rendered, bytesRead := 0, 0, 0
	var service time.Duration
	for _, rd := range r.reads {
		lat := us(rd.lat)
		if !rd.ok {
			lat = us(time.Hour) // a failed read misses every latency limit
		}
		lags = append(lags, us(rd.lag))
		bytesRead += rd.bytes
		service += rd.service
		if rd.render {
			rendered++
			renders = append(renders, ms(rd.service))
		} else {
			hits = append(hits, us(rd.service))
		}
		if rd.phase == 0 {
			nominal = append(nominal, lat)
		} else {
			peak = append(peak, lat)
			if rd.ok && rd.lat <= s.readLimit {
				good++
			}
		}
	}
	lagP99 := quantile(lags, 0.99)
	b.check(time.Duration(lagP99*float64(time.Microsecond)) <= s.sendLagLimit,
		"load generator fell behind: send lag p99 %.0fus exceeds %s", lagP99, s.sendLagLimit)
	b.info["send_lag_p99_us"] = lagP99
	b.info["reads"] = len(r.reads)
	b.info["ingests"] = len(r.ingests)
	b.info["not_modified"] = r.notModified
	b.info["gzip_compared"] = r.gzipCompared
	// The figures behind the knee measurement (README.md "Offered rates").
	b.info["rates_rps"] = []float64{s.nominalRPS, s.peakRPS}
	b.info["peak_read_p99_us"] = quantile(peak, 0.99)
	b.info["peak_good_share"] = float64(good) / float64(max(len(peak), 1))
	b.info["service_mean_us"] = us(service) / float64(max(len(r.reads), 1))
	b.info["ingest_p50_ms"] = quantile(r.ingests, 0.5)
	b.info["ingest_p90_ms"] = quantile(r.ingests, 0.9)

	b.set("latency_p50_ms", quantile(nominal, 0.5)/1000)
	b.set("latency_tail_ms", quantile(nominal, 0.99)/1000)
	b.set("goodput_per_s", float64(good)/r.peak.Seconds())

	b.set("serve.read_p99_us", quantile(nominal, 0.99))
	b.set("serve.peak_read_p99_us", quantile(peak, 0.99))
	b.set("serve.ingest_p50_ms", quantile(r.ingests, 0.5))
	b.set("serve.ingest_p90_ms", quantile(r.ingests, 0.9))
	b.set("serve.send_lag_p99_us", lagP99)
	b.set("query.hit_p50_us", quantile(hits, 0.5))
	b.set("query.render_p50_ms", quantile(renders, 0.5))
	b.set("query.render_share", float64(rendered)/float64(max(len(r.reads), 1)))
	b.set("query.bytes_per_read", float64(bytesRead)/float64(max(len(r.reads), 1)))
	b.set("net.floor_p50_us", quantile(r.floor, 0.5))
}

// serveSetup generates the inputs and starts resultsd three times on
// fresh store directories (pre-population at start-up, then /healthz),
// reporting the median start as setup_s and keeping the last server.
func serveSetup(b *bench) (*serveInputs, *resultsd, error) {
	if b.resultsd == "" {
		return nil, nil, fmt.Errorf("serve_mixed needs -resultsd")
	}
	gen := filepath.Join(b.work, "inputs")
	if err := os.MkdirAll(gen, 0o755); err != nil {
		return nil, nil, err
	}
	t := time.Now()
	in, err := genServeInputs(b, gen)
	if err != nil {
		return nil, nil, err
	}
	b.info["input_gen_s"] = time.Since(t).Seconds()
	var setups []float64
	var srv *resultsd
	for i := 0; i < 3; i++ {
		if srv != nil {
			srv.stop()
		}
		t := time.Now()
		srv, err = startResultsd(b.resultsd, filepath.Join(b.work, fmt.Sprintf("store%d", i)), in.prepop, b.log)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	b.set("setup_s", median(setups))
	return in, srv, nil
}

// serveMixed is the serve_mixed workload.
func serveMixed(b *bench) error {
	in, srv, err := serveSetup(b)
	if err != nil {
		return err
	}
	defer srv.stop()
	r := servePass(b, in, srv, false)
	b.set("peak_rss_mb", peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid)))
	r.report(b)
	return nil
}

// traceServe runs one traced serve pass plus the direct store probes:
// store.Open on a pre-populated directory and in-process Ingest of the
// growing corpus in the pass's arrival order.
func traceServe(b *bench, tr *tracer) error {
	in, srv, err := serveSetup(b)
	if err != nil {
		return err
	}
	root := tr.start("serve.pass", 0)
	r := servePass(b, in, srv, true)
	tr.finish(root)
	srv.stop()
	r.report(b)

	var opens []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		_, err := store.Open(filepath.Join(b.work, "store0"))
		opens = append(opens, ms(time.Since(t)))
		if err != nil {
			return err
		}
	}
	b.set("store.open_ms", median(opens))

	st, err := store.Open(filepath.Join(b.work, "direct"))
	if err != nil {
		return err
	}
	if _, err := st.IngestFiles(in.prepop...); err != nil {
		return err
	}
	var ingests []float64
	pending := 0
	sid := tr.start("store.ingest", 0)
	for _, body := range in.growing {
		t := time.Now()
		res, err := st.Ingest(body)
		ingests = append(ingests, ms(time.Since(t)))
		b.attempted++
		if err != nil {
			b.fail("direct store ingest: %v", err)
			continue
		}
		pending = max(pending, res.Pending)
	}
	tr.finish(sid)
	b.set("store.ingest_p50_ms", quantile(ingests, 0.5))
	b.set("store.pending_max", float64(pending))
	return nil
}
