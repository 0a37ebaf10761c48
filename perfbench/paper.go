package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
	"github.com/safari-repro/hbmrh/internal/engine"
	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/hbm"
	"github.com/safari-repro/hbmrh/internal/results"
)

// paperExperiments is the registry paper suite, in the order
// `characterize -experiment paper` runs it.
var paperExperiments = []string{"sweep", "fig6", "trrstudy"}

// paperChip is chip j of the paper_suite pool.
func paperChip(s sizes, j int) *config.Config {
	cfg := config.SmallChip()
	if s.paperChip == "paper" {
		cfg = config.PaperChip()
	}
	cfg.Seed += uint64(j)
	return cfg
}

func paperKey(s sizes, j int) string {
	return fmt.Sprintf("paper_suite/%s/chip%d/rows%d/bankrows%d/hammers%d/iterations%d",
		s.paperChip, j, s.paperRows, s.paperBankRows, s.paperHammers, s.paperIterations)
}

// paperOptions are the registry options `characterize -experiment paper`
// builds for one experiment of the suite.
func paperOptions(cfg *config.Config, s sizes, name string, parallel int) experiments.Options {
	o := experiments.Options{
		Cfg:        cfg,
		Rows:       s.paperRows,
		Hammers:    s.paperHammers,
		Iterations: s.paperIterations,
		Parallel:   parallel,
	}
	if name == "fig6" {
		o.Rows = s.paperBankRows
	}
	return o
}

// countsKey names the recorded exact counts of a traced pass on pool
// chip j.
func countsKey(s sizes, j int) string { return paperKey(s, j) + "/counts" }

// counts renders the job and device counts of a serial traced pass. They
// are fixed by the inputs, so the benchmark compares them with recorded
// values: a change is a model change, not a speed-up.
func (pt *paperTrace) counts() string {
	return fmt.Sprintf("jobs=%d acts=%d refreshes=%d bitflips=%d", len(pt.jobs), pt.acts, pt.refreshes, pt.bitflips)
}

// addCSV folds one experiment's summary CSV into the suite digest.
func addCSV(h hash.Hash, name string, a *results.Artifact) error {
	csv, err := summaryCSV(a)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(h, "# %s %d\n", name, len(csv))
	h.Write(csv)
	return nil
}

// runPaper runs the suite on cfg through experiments.Run, with the
// shared device pool drained first because a CLI user pays for device
// builds on every run. It returns the digest of the summary CSVs.
func runPaper(cfg *config.Config, s sizes, parallel int) (string, error) {
	engine.SharedPool.Drain()
	h := sha256.New()
	for _, name := range paperExperiments {
		a, err := experiments.Run(name, paperOptions(cfg, s, name, parallel))
		if err != nil {
			return "", err
		}
		if err := addCSV(h, name, a); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// paperOrder is the pool order the seed draws for one run's passes.
func paperOrder(seed int64, pool int) []int {
	return rand.New(rand.NewSource(seed)).Perm(pool)
}

// paperSuite times whole suite passes for the run's length. Set-up is
// one serial (Parallel=1) reference run of the first pass's chip; every
// pass must match it, its recorded digest, and run on nproc workers.
func paperSuite(b *bench) error {
	s := b.size
	order := paperOrder(b.seed, s.paperPool)
	nproc := runtime.NumCPU()

	t0 := time.Now()
	ref, err := runPaper(paperChip(s, order[0]), s, 1)
	if err != nil {
		return err
	}
	b.set("setup_s", time.Since(t0).Seconds())
	b.attempted++
	b.checkRecorded(paperKey(s, order[0]), ref)

	jobs := 0
	for _, name := range paperExperiments {
		info, err := experiments.Describe(name, paperOptions(paperChip(s, 0), s, name, nproc))
		if err != nil {
			return err
		}
		jobs += info.Jobs
	}

	walls, total := b.timePasses(func(i int) error {
		j := order[i%len(order)]
		d, err := runPaper(paperChip(s, j), s, nproc)
		if err == nil {
			b.checkRecorded(paperKey(s, j), d)
			b.check(i > 0 || d == ref, "paper pass 0 on %d workers differs from the serial reference", nproc)
		}
		return err
	})
	b.set("latency_p50_ms", median(walls))
	b.set("latency_tail_ms", maxOf(walls))
	b.set("goodput_per_s", float64(jobs*len(walls))/total.Seconds())
	b.set("peak_rss_mb", peakRSSMB("self"))
	return nil
}

// jobRec is one traced job of a paper pass.
type jobRec struct {
	plan       int
	start, end time.Duration
}

// paperTrace collects the engine, experiments and device counters of
// one traced paper pass.
type paperTrace struct {
	tr    *tracer
	epoch time.Time

	mu        sync.Mutex
	jobs      []jobRec
	firstJobs []float64 // ms from engine run start to each worker's first job
	addNS     int64     // Fold.Add time, spent on worker goroutines
	finishNS  int64     // Fold.Finish time
	busyNS    int64     // job time on leased harnesses
	acts      int64
	refreshes int64
	bitflips  int64
	idleNS    int64
	workerNS  int64
	tailNS    int64
}

// planRun is the per-plan state of a traced engine run.
type planRun struct {
	index   int
	workers int
	start   time.Time
	seen    map[*core.Harness]bool
	firsts  int // first jobs seen on a plan without harnesses
}

// runPaperTraced runs the suite with every plan driven through
// engine.ReduceHarness/engine.Reduce exactly as experiments.Run does,
// with spans around each Job.Run and Fold.Add/Finish. Provenance
// stamping is skipped: the summary CSV does not read it.
func runPaperTraced(pt *paperTrace, cfg *config.Config, s sizes, parallel, parent int) (string, error) {
	engine.SharedPool.Drain()
	h := sha256.New()
	for pi, name := range paperExperiments {
		sid := pt.tr.start("experiments.run", parent)
		a, err := pt.runPlan(pi, name, paperOptions(cfg, s, name, parallel), sid)
		pt.tr.finish(sid)
		if err != nil {
			return "", err
		}
		if err := addCSV(h, name, a); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (pt *paperTrace) runPlan(pi int, name string, o experiments.Options, parent int) (*results.Artifact, error) {
	e, err := experiments.Lookup(name)
	if err != nil {
		return nil, err
	}
	p, err := e.Plan(o)
	if err != nil {
		return nil, err
	}
	n := len(p.Jobs)
	fold := p.NewFold(0, n)
	weights := make([]float64, n)
	for i, j := range p.Jobs {
		weights[i] = 1
		if j.Weight > 0 {
			weights[i] = j.Weight
		}
	}
	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eo := engine.Options{Ctx: o.Ctx, Workers: o.Parallel, Planner: o.Planner, Weights: weights}

	eid := pt.tr.start("engine.run", parent)
	pr := &planRun{index: pi, workers: min(workers, n), start: time.Now(), seen: map[*core.Harness]bool{}}
	run := func(ctx context.Context, hs *core.Harness, i int) (any, error) {
		sid := pt.tr.start("job", eid)
		defer pt.tr.finish(sid)
		t := time.Now()
		if hs == nil {
			v, err := p.Jobs[i].Run(ctx, nil)
			pt.record(pr, nil, t, time.Now(), [3]int64{})
			return v, err
		}
		before := hs.Device().Stats()
		v, err := p.Jobs[i].Run(ctx, hs)
		after := hs.Device().Stats()
		pt.record(pr, hs, t, time.Now(), [3]int64{after.Acts - before.Acts,
			after.Refreshes - before.Refreshes, after.BitflipsCommitted - before.BitflipsCommitted})
		return v, err
	}
	add := func(i int, v any) error {
		sid := pt.tr.start("fold.add", eid)
		defer pt.tr.finish(sid)
		t := time.Now()
		err := fold.Add(i, v)
		pt.mu.Lock()
		pt.addNS += int64(time.Since(t))
		pt.mu.Unlock()
		return err
	}
	if p.Harness {
		err = engine.ReduceHarness(eo, p.Cfg, n, run, add)
	} else {
		err = engine.Reduce(eo, n, func(ctx context.Context, i int) (any, error) { return run(ctx, nil, i) }, add)
	}
	wall := time.Since(pr.start)
	pt.tr.finish(eid)
	if err != nil {
		return nil, err
	}
	fid := pt.tr.start("fold.finish", parent)
	t := time.Now()
	a, err := fold.Finish()
	pt.finishNS += int64(time.Since(t))
	pt.tr.finish(fid)
	pt.closePlan(pr, wall)
	return a, err
}

// record books one finished job with its device counter deltas (acts,
// refreshes, bitflips). A worker's first job is known exactly on harness
// plans (one leased harness per worker); on plans without a harness the
// first `workers` job starts stand in for it.
func (pt *paperTrace) record(pr *planRun, hs *core.Harness, start, end time.Time, counts [3]int64) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.jobs = append(pt.jobs, jobRec{plan: pr.index, start: start.Sub(pt.epoch), end: end.Sub(pt.epoch)})
	first := false
	if hs != nil {
		first = !pr.seen[hs]
		pr.seen[hs] = true
		pt.busyNS += int64(end.Sub(start))
		pt.acts += counts[0]
		pt.refreshes += counts[1]
		pt.bitflips += counts[2]
	} else if pr.firsts < pr.workers {
		pr.firsts++
		first = true
	}
	if first {
		pt.firstJobs = append(pt.firstJobs, ms(start.Sub(pr.start)))
	}
}

// closePlan derives the plan's idle time and tail from its job records:
// idle is worker time spent in neither jobs nor the fold, and the tail
// runs from the first worker going idle for good (the first job end
// after the last job started) to the last job's end.
func (pt *paperTrace) closePlan(pr *planRun, wall time.Duration) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var busy, lastStart, lastEnd time.Duration
	for _, j := range pt.jobs {
		if j.plan == pr.index {
			busy += j.end - j.start
			lastStart = max(lastStart, j.start)
			lastEnd = max(lastEnd, j.end)
		}
	}
	firstIdle := lastEnd
	for _, j := range pt.jobs {
		if j.plan == pr.index && j.start != lastStart && j.end >= lastStart {
			firstIdle = min(firstIdle, j.end)
		}
	}
	pt.tailNS += int64(lastEnd - firstIdle)
	pt.workerNS += int64(pr.workers) * int64(wall)
	pt.idleNS += int64(pr.workers)*int64(wall) - int64(busy)
}

// jobDurations returns every traced job's duration in ms.
func (pt *paperTrace) jobDurations() []float64 {
	out := make([]float64, len(pt.jobs))
	for i, j := range pt.jobs {
		out[i] = ms(j.end - j.start)
	}
	return out
}

// tracePaper runs the traced paper pass on nproc workers and serially
// on one core, beside an untraced pass on the same chip, and reports the
// engine, experiments and device layers.
func tracePaper(b *bench, tr *tracer) error {
	s := b.size
	// Pool chip 0 for every seed, so the device counts repeat exactly
	// between any two traced runs.
	cfg := paperChip(s, 0)
	nproc := runtime.NumCPU()

	// A first untraced pass warms the process (heap growth, page faults),
	// so the untraced and traced passes timed next compare like for like.
	var plain string
	var untraced time.Duration
	for i := 0; i < 2; i++ {
		t := time.Now()
		d, err := runPaper(cfg, s, nproc)
		untraced = time.Since(t)
		b.attempted++
		if err != nil {
			return err
		}
		b.checkRecorded(paperKey(s, 0), d)
		plain = d
	}

	// traced runs the suite traced with the given GOMAXPROCS and engine
	// workers. The serial pass (one core, one worker) also gives the
	// device counts: with one harness running the jobs in plan order its
	// device history, and so every count, repeats exactly.
	traced := func(procs, workers int, tr *tracer) (*paperTrace, time.Duration, engine.PoolStats, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		before := engine.SharedPool.Stats()
		pt := &paperTrace{tr: tr, epoch: time.Now()}
		root := tr.start("paper_suite.pass", 0)
		d, err := runPaperTraced(pt, cfg, s, workers, root)
		tr.finish(root)
		wall := time.Since(pt.epoch)
		after := engine.SharedPool.Stats()
		b.attempted++
		if err == nil {
			b.check(d == plain, "traced paper pass (GOMAXPROCS=%d) differs from the untraced pass", procs)
		}
		return pt, wall, engine.PoolStats{Created: after.Created - before.Created, Reused: after.Reused - before.Reused}, err
	}
	pt, wall, pool, err := traced(nproc, nproc, tr)
	if err != nil {
		return err
	}
	tr1 := newTracer(tr.run + "-serial")
	b.tracers = append(b.tracers, tr1)
	serial, wall1, _, err := traced(1, 1, tr1)
	if err != nil {
		return err
	}
	b.check(serial.acts == pt.acts, "activation counts differ between the serial and the %d-worker pass", nproc)
	b.checkRecorded(countsKey(s, 0), serial.counts())
	b.info["paper_untraced_ms"], b.info["paper_traced_ms"], b.info["paper_serial_ms"] = ms(untraced), ms(wall), ms(wall1)

	var builds []float64
	for i := 0; i < 21; i++ {
		t := time.Now()
		if _, err := hbm.New(cfg); err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t)))
	}
	b.set("hbm.new_ms", median(builds))
	b.set("engine.self_ms", ms(tr.selfTime("engine.run")))
	b.set("experiments.self_ms", ms(tr.selfTime("experiments.run")))

	jobs := pt.jobDurations()
	b.set("engine.pool_created", float64(pool.Created))
	b.set("engine.pool_reused", float64(pool.Reused))
	b.set("engine.first_job_ms", median(pt.firstJobs))
	b.set("engine.idle_share", float64(pt.idleNS-pt.addNS)/float64(pt.workerNS))
	b.set("engine.tail_ms", ms(time.Duration(pt.tailNS)))
	b.set("engine.scaling", wall1.Seconds()/wall.Seconds())
	b.set("experiments.jobs", float64(len(jobs)))
	b.set("experiments.job_p50_ms", median(jobs))
	b.set("experiments.job_max_ms", maxOf(jobs))
	b.set("experiments.fold_ms", ms(time.Duration(pt.addNS+pt.finishNS)))
	b.set("hbm.acts", float64(serial.acts))
	b.set("hbm.refreshes", float64(serial.refreshes))
	b.set("hbm.bitflips", float64(serial.bitflips))
	b.set("core.ns_per_act", float64(serial.busyNS)/float64(max(serial.acts, 1)))
	b.set("trace.overhead_ms", ms(wall-untraced))
	return nil
}
