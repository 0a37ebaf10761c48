package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/fleet"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/store"
)

// fleet.Study names chips by preset only, so fleet_scan's inputs are
// fixed: the small chip's first fleetChips seeds. The workload seed does
// not reach this workload.

func fleetKey(s sizes, n int) string {
	return fmt.Sprintf("fleet_scan/multichip/small/seeds%d/rows%d", n, s.fleetRows)
}

func fleetStudy(s sizes, n int) fleet.Study {
	return fleet.Study{Experiment: "multichip", Chip: "small", Rows: s.fleetRows, Seeds: n}
}

// fleetReference is the in-process experiments.Run of the options a
// fleet worker resolves from fleetStudy, as a summary CSV digest.
func fleetReference(s sizes, n int) (string, error) {
	a, err := experiments.Run("multichip", experiments.Options{Cfg: config.SmallChip(), Rows: s.fleetRows, Seeds: n})
	if err != nil {
		return "", err
	}
	csv, err := summaryCSV(a)
	if err != nil {
		return "", err
	}
	return sha(csv), nil
}

// fleetPass runs one fleet scan into a fresh journal directory and lands
// its shards in a fresh on-disk store, the flow of `characterize fleet
// -dir D -store S`. It returns the merged artifact's summary CSV digest
// after checking that the store's merged view renders the same bytes.
func fleetPass(b *bench, dir string, s sizes, n int, launcher fleet.Launcher) (string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return "", err
	}
	a, err := fleet.Run(fleet.Spec{
		Study:    fleetStudy(s, n),
		Workers:  s.fleetWorkers,
		Chunk:    1,
		Dir:      filepath.Join(dir, "fleet"),
		Launcher: launcher,
		Store:    st,
	})
	if err != nil {
		return "", err
	}
	csv, err := summaryCSV(a)
	if err != nil {
		return "", err
	}
	ids := st.Corpora()
	if b.check(len(ids) == 1, "fleet store holds %d corpora, want 1", len(ids)) {
		snap, _ := st.Snapshot(ids[0])
		got, err := summaryCSV(snap.Merged)
		b.check(err == nil && string(got) == string(csv) && snap.Complete,
			"fleet store view differs from the merged fleet artifact (complete=%v, err=%v)", snap.Complete, err)
	}
	return sha(csv), nil
}

// fleetScan times fleet passes for the run's length. Set-up is the
// in-process reference run, repeated three times; every pass must match
// it and its recorded digest.
func fleetScan(b *bench) error {
	s := b.size
	n := s.fleetChips
	var ref string
	var setups []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		d, err := fleetReference(s, n)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		b.attempted++
		b.check(ref == "" || d == ref, "in-process multichip runs disagree")
		ref = d
	}
	b.set("setup_s", median(setups))
	b.checkRecorded(fleetKey(s, n), ref)

	walls, total := b.timePasses(func(i int) error {
		d, err := fleetPass(b, filepath.Join(b.work, "pass"), s, n, nil)
		if err == nil {
			b.check(d == ref, "fleet pass %d differs from the in-process run", i)
		}
		return err
	})
	b.set("latency_p50_ms", median(walls))
	b.set("latency_tail_ms", maxOf(walls))
	b.set("goodput_per_s", float64(n*len(walls))/total.Seconds())
	b.set("peak_rss_mb", max(peakRSSMB("self"), childrenPeakRSSMB()))
	return nil
}

// workerTrace is the event timeline of one launched worker.
type workerTrace struct {
	start          time.Time
	startEvent     time.Time
	doneEvent      time.Time
	exit           time.Time
	chunkIntervals []float64 // ms between successive progress events
	chunks         int
	last           time.Time
}

// tracingLauncher wraps a Launcher and timestamps each worker's stdout
// events and exit.
type tracingLauncher struct {
	inner fleet.Launcher
	mu    sync.Mutex
	procs []*workerTrace
}

func (l *tracingLauncher) Start(ctx context.Context, argv []string, stdout, stderr io.Writer) (fleet.Proc, error) {
	wt := &workerTrace{start: time.Now()}
	l.mu.Lock()
	l.procs = append(l.procs, wt)
	l.mu.Unlock()
	tap := &lineTap{next: stdout, onLine: func(line []byte, at time.Time) {
		var e fleet.Event
		if json.Unmarshal(line, &e) != nil {
			return
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		switch e.Event {
		case "start":
			wt.startEvent, wt.last = at, at
		case "chunk":
			wt.chunks++
			wt.chunkIntervals = append(wt.chunkIntervals, ms(at.Sub(wt.last)))
			wt.last = at
		case "done":
			wt.doneEvent = at
		}
	}}
	p, err := l.inner.Start(ctx, argv, tap, stderr)
	if err != nil {
		return nil, err
	}
	return &tracedProc{Proc: p, l: l, wt: wt}, nil
}

type tracedProc struct {
	fleet.Proc
	l  *tracingLauncher
	wt *workerTrace
}

func (p *tracedProc) Wait() error {
	err := p.Proc.Wait()
	p.l.mu.Lock()
	p.wt.exit = time.Now()
	p.l.mu.Unlock()
	return err
}

// traceFleet runs one traced fleet pass and the results-layer probes on
// its shard files.
func traceFleet(b *bench, tr *tracer) error {
	s := b.size
	n := s.fleetChips
	ref, err := fleetReference(s, n)
	if err != nil {
		return err
	}
	l := &tracingLauncher{inner: fleet.LocalLauncher{}}
	dir := filepath.Join(b.work, "traced")
	root := tr.start("fleet.run", 0)
	d, err := fleetPass(b, dir, s, n, l)
	end := time.Now()
	tr.finish(root)
	b.attempted++
	if err != nil {
		return err
	}
	b.check(d == ref, "traced fleet pass differs from the in-process run")

	var spawn, chunks, exits []float64
	var lastExit time.Time
	nchunks := 0
	for _, w := range l.procs {
		spawn = append(spawn, ms(w.startEvent.Sub(w.start)))
		chunks = append(chunks, w.chunkIntervals...)
		exits = append(exits, ms(w.exit.Sub(w.doneEvent)))
		nchunks += w.chunks
		if w.exit.After(lastExit) {
			lastExit = w.exit
		}
		tr.add("fleet.worker", root, w.start, w.exit)
	}
	b.set("fleet.spawn_ms", median(spawn))
	b.set("fleet.chunk_p50_ms", median(chunks))
	b.set("fleet.chunks", float64(nchunks))
	b.set("fleet.exit_ms", median(exits))
	b.set("fleet.coord_ms", ms(end.Sub(lastExit)))
	b.set("fleet.launches", float64(len(l.procs)))
	// Chunk=1 gives one chunk per chip seed, and a launch beyond one per
	// worker is a retry after a failure.
	b.check(nchunks == s.fleetChips, "fleet wrote %d chunks for %d chip seeds", nchunks, s.fleetChips)
	b.check(len(l.procs) == s.fleetWorkers, "fleet launched %d workers for %d", len(l.procs), s.fleetWorkers)

	paths, err := filepath.Glob(filepath.Join(dir, "fleet", "shard-*.json"))
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("no fleet shard files in %s", dir)
	}
	var merges []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		shards := make([]*results.Artifact, len(paths))
		for k, p := range paths {
			if shards[k], err = results.ReadFile(p); err != nil {
				return err
			}
		}
		m, err := results.MergeShards(shards, paths)
		merges = append(merges, ms(time.Since(t)))
		b.attempted++
		if err != nil {
			b.fail("merging fleet shards: %v", err)
			continue
		}
		csv, err := summaryCSV(m)
		b.check(err == nil && sha(csv) == ref, "MergeShards over the fleet shard files differs from the in-process run")
	}
	var kb float64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			kb += float64(fi.Size()) / 1024
		}
	}
	b.set("results.merge_ms", median(merges))
	b.set("results.artifact_kb", kb/float64(len(paths)))
	return nil
}
