package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/core"
)

func TestMapResultsInIndexOrder(t *testing.T) {
	const n = 64
	got, err := Map(Options{Workers: 7}, n, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		out, err := Map(Options{Workers: workers}, 33, func(_ context.Context, i int) (int, error) {
			return 3*i + 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d differs across worker counts: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMapPropagatesJobError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(Options{Workers: 3}, 16, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the job error", err)
	}
}

func TestMapZeroJobs(t *testing.T) {
	out, err := Map(Options{}, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for an empty job set")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapMoreWorkersThanJobs(t *testing.T) {
	out, err := Map(Options{Workers: 32}, 3, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil || len(out) != 3 {
		t.Fatalf("got (%v, %v)", out, err)
	}
}

func TestMapCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	_, err := Map(Options{Ctx: ctx, Workers: 4}, 100, func(context.Context, int) (int, error) {
		calls.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("%d jobs ran on a pre-cancelled context", calls.Load())
	}
}

func TestMapCancelMidRun(t *testing.T) {
	const n = 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	_, err := Map(Options{
		Ctx:     ctx,
		Workers: 4,
		OnProgress: func(p Progress) {
			// First *delivered* update: out-of-order completions may skip
			// Done==1, so trigger on >= 1.
			if p.Done >= 1 {
				cancel()
			}
		},
	}, n, func(context.Context, int) (int, error) {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// In-flight jobs may finish, but no worker pulls new work after the
	// cancellation, so the run stops far short of the full job set.
	if c := calls.Load(); c >= n {
		t.Fatalf("all %d jobs ran despite cancellation", c)
	}
}

func TestMapProgressMonotoneAndComplete(t *testing.T) {
	const n = 40
	last := 0
	_, err := Map(Options{
		Workers: 5,
		OnProgress: func(p Progress) {
			if p.Total != n {
				t.Errorf("Total = %d, want %d", p.Total, n)
			}
			if p.Done <= last {
				t.Errorf("progress not strictly increasing: %d after %d", p.Done, last)
			}
			last = p.Done
		},
	}, n, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if last != n {
		t.Fatalf("final progress %d, want %d", last, n)
	}
}

func TestReduceFoldsInIndexOrder(t *testing.T) {
	const n = 200
	var folded []int
	sum := 0
	err := Reduce(Options{Workers: 8}, n,
		func(_ context.Context, i int) (int, error) {
			if i%3 == 0 {
				time.Sleep(time.Millisecond) // stagger completion order
			}
			return i * 2, nil
		},
		func(i int, v int) error {
			folded = append(folded, i) // serialized by the reducer: no lock
			sum += v
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(folded) != n {
		t.Fatalf("folded %d results, want %d", len(folded), n)
	}
	for i, idx := range folded {
		if idx != i {
			t.Fatalf("fold %d received index %d: out of order", i, idx)
		}
	}
	if want := n * (n - 1); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestReduceIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		var out []int
		err := Reduce(Options{Workers: workers}, 50,
			func(_ context.Context, i int) (int, error) { return 7 * i, nil },
			func(_ int, v int) error { out = append(out, v); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fold sequence differs across worker counts at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestReduceBackpressureBoundsUnfoldedResults(t *testing.T) {
	// A straggling early index must not let later results pile up: workers
	// that complete more than one window past the fold frontier park until
	// the frontier advances, so completed-but-unfolded results stay
	// O(workers) even with O(n) jobs behind the straggler.
	const n, workers = 100, 4
	release := make(chan struct{})
	var completed atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- Reduce(Options{Workers: workers}, n,
			func(_ context.Context, i int) (int, error) {
				if i == 0 {
					<-release // job 0 stalls; the fold frontier stays at 0
				}
				completed.Add(1)
				return i, nil
			},
			func(i int, v int) error { return nil })
	}()
	// Wait for completions to plateau while job 0 is stalled.
	deadline := time.Now().Add(5 * time.Second)
	var plateau int64
	for time.Now().Before(deadline) {
		c := completed.Load()
		if c == plateau && c > 0 {
			break
		}
		plateau = c
		time.Sleep(50 * time.Millisecond)
	}
	// Window (= workers) deposited plus one parked result per free worker.
	if max := int64(2*workers + 1); plateau > max {
		t.Errorf("%d jobs completed behind the straggler, want <= %d (unbounded reorder buffer)", plateau, max)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if c := completed.Load(); c != n {
		t.Fatalf("%d jobs completed after release, want %d", c, n)
	}
}

func TestReduceStragglerErrorReleasesParkedWorkers(t *testing.T) {
	// If the straggler fails, parked workers must be woken and the run
	// must join promptly instead of deadlocking.
	boom := errors.New("straggler boom")
	const n, workers = 60, 4
	fail := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- Reduce(Options{Workers: workers}, n,
			func(_ context.Context, i int) (int, error) {
				if i == 0 {
					<-fail
					return 0, boom
				}
				return i, nil
			},
			func(i int, v int) error { return nil })
	}()
	time.Sleep(100 * time.Millisecond) // let the other workers park
	close(fail)
	select {
	case err := <-errc:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the straggler's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Reduce deadlocked with parked workers after a straggler error")
	}
}

func TestReduceCancelReleasesParkedWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n, workers = 60, 4
	block := make(chan struct{})
	defer close(block)
	errc := make(chan error, 1)
	go func() {
		errc <- Reduce(Options{Ctx: ctx, Workers: workers}, n,
			func(jobCtx context.Context, i int) (int, error) {
				if i == 0 {
					// In-flight jobs drain on cancellation (as the
					// harness measurement loops do via ctx).
					select {
					case <-block:
					case <-jobCtx.Done():
					}
				}
				return i, nil
			},
			func(i int, v int) error { return nil })
	}()
	time.Sleep(100 * time.Millisecond) // let the other workers park
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Reduce deadlocked with parked workers after cancellation")
	}
}

func TestReduceFoldErrorAborts(t *testing.T) {
	boom := errors.New("fold boom")
	var calls atomic.Int64
	err := Reduce(Options{Workers: 4}, 100,
		func(_ context.Context, i int) (int, error) { calls.Add(1); return i, nil },
		func(i int, v int) error {
			if i == 5 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fold error", err)
	}
	if calls.Load() >= 100 {
		t.Fatal("all jobs ran despite a fold error")
	}
}

func TestReduceJobErrorSkipsLaterFolds(t *testing.T) {
	boom := errors.New("job boom")
	var foldedPastError atomic.Bool
	err := Reduce(Options{Workers: 3}, 30,
		func(_ context.Context, i int) (int, error) {
			if i == 4 {
				return 0, boom
			}
			return i, nil
		},
		func(i int, v int) error {
			if i > 4 {
				foldedPastError.Store(true)
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the job error", err)
	}
	if foldedPastError.Load() {
		t.Fatal("results past the failing index were folded")
	}
}

func TestReduceCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var folds atomic.Int64
	err := Reduce(Options{Ctx: ctx, Workers: 4}, 50,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(int, int) error { folds.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if folds.Load() != 0 {
		t.Fatalf("%d folds ran on a pre-cancelled context", folds.Load())
	}
}

func TestReduceZeroJobs(t *testing.T) {
	err := Reduce(Options{}, 0,
		func(_ context.Context, i int) (int, error) {
			t.Fatal("fn called for an empty job set")
			return 0, nil
		},
		func(int, int) error { t.Fatal("fold called for an empty job set"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapHarnessArmsAndDisarmsContext(t *testing.T) {
	p := NewDevicePool()
	cfg := config.SmallChip()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// While leased, the harness must observe the run's context: cancel and
	// check a measurement fails with ctx.Err.
	bank := addr.BankAddr{Channel: 7}
	_, err := MapHarness(Options{Workers: 1, Pool: p, Ctx: ctx}, cfg, 1,
		func(_ context.Context, h *core.Harness, i int) (int, error) {
			cancel()
			if _, berErr := h.BER(bank, 5, core.Table1()[0], 1024); !errors.Is(berErr, context.Canceled) {
				t.Errorf("leased harness BER err = %v, want context.Canceled", berErr)
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	// Returned to the pool, the harness must be disarmed again.
	h, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.BER(bank, 5, core.Table1()[0], 1024); err != nil {
		t.Fatalf("pooled harness still armed with a dead context: %v", err)
	}
}

func TestFlattenPreservesOrder(t *testing.T) {
	got := Flatten([][]int{{1, 2}, nil, {3}, {4, 5}})
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPoolReusesWarmedDevice(t *testing.T) {
	p := NewDevicePool()
	cfg := config.SmallChip()
	h1, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(cfg, h1)
	// A content-equal copy must hit the same warmed device even though it
	// is a different pointer.
	cfgCopy := *cfg
	h2, err := p.Get(&cfgCopy)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("pool built a new device although a warmed one was idle")
	}
	st := p.Stats()
	if st.Created != 1 || st.Reused != 1 {
		t.Fatalf("stats = %+v, want 1 created / 1 reused", st)
	}
}

func TestPoolSeparatesChipInstances(t *testing.T) {
	p := NewDevicePool()
	a := config.SmallChip()
	b := config.SmallChip()
	b.Seed++
	ha, err := p.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(a, ha)
	hb, err := p.Get(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Fatal("different seeds shared one warmed device")
	}
	if st := p.Stats(); st.Created != 2 {
		t.Fatalf("stats = %+v, want 2 created", st)
	}
}

func TestPoolResetsTunablesOnPut(t *testing.T) {
	p := NewDevicePool()
	cfg := config.SmallChip()
	h, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.EnforceBudget = false
	h.HCPrecision = 1
	p.Put(cfg, h)
	h2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatal("expected the warmed device back")
	}
	if !h2.EnforceBudget || h2.HCPrecision == 1 {
		t.Fatalf("tunables not reset: EnforceBudget=%v HCPrecision=%d",
			h2.EnforceBudget, h2.HCPrecision)
	}
}

func TestPoolDrainConfigIsPerKey(t *testing.T) {
	p := NewDevicePool()
	a := config.SmallChip()
	b := config.SmallChip()
	b.Seed++
	ha, err := p.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := p.Get(b)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(a, ha)
	p.Put(b, hb)
	p.DrainConfig(a)
	ha2, err := p.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if ha2 == ha {
		t.Fatal("drained config still served its old warmed device")
	}
	hb2, err := p.Get(b)
	if err != nil {
		t.Fatal(err)
	}
	if hb2 != hb {
		t.Fatal("draining one config evicted another's warmed device")
	}
}

func TestPoolRefusesKeyCollisions(t *testing.T) {
	// The 64-bit structural key could, in principle, collide for two
	// different configs; the pool must then miss (build fresh / drop)
	// rather than silently lease a device built for other parameters.
	// Forge a collision by corrupting an idle set's snapshot in place.
	p := NewDevicePool()
	cfg := config.SmallChip()
	h, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(cfg, h)
	for i := range p.shards {
		for _, e := range p.shards[i].idle {
			e.cfg.Seed++ // now the resident snapshot disagrees with cfg
		}
	}
	h2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h {
		t.Fatal("pool leased a device across a key collision")
	}
	p.Put(cfg, h2) // snapshot mismatch: must drop, not alias
	st := p.Stats()
	if st.Collisions != 2 {
		t.Fatalf("stats = %+v, want 2 collisions (one Get miss, one Put drop)", st)
	}
	if st.Dropped != 1 {
		t.Fatalf("stats = %+v, want the colliding Put dropped", st)
	}
}

func TestPoolSnapshotImmuneToCallerMutation(t *testing.T) {
	// A caller mutating its config's slice contents after Put must not
	// poison the idle set: the snapshot is deep, so the mutated config is
	// a different key/contents and the stale devices are never aliased.
	p := NewDevicePool()
	cfg := config.SmallChip()
	h, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(cfg, h)
	cfg.Fault.Channels[0].MedianHC *= 2 // mutate shared backing array
	h2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h {
		t.Fatal("mutated config was served the stale warmed device")
	}
}

func TestPoolCapsIdleDevices(t *testing.T) {
	p := NewDevicePool()
	p.MaxIdlePerKey = 1
	cfg := config.SmallChip()
	h1, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(cfg, h1)
	p.Put(cfg, h2)
	if st := p.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 1 dropped", st)
	}
}

func TestMapHarnessLeasesPerWorkerAndReturns(t *testing.T) {
	p := NewDevicePool()
	cfg := config.SmallChip()
	seen := make(map[*core.Harness]bool)
	var mu sync.Mutex
	o := Options{Workers: 3, Pool: p}
	out, err := MapHarness(o, cfg, 9, func(_ context.Context, h *core.Harness, i int) (int, error) {
		if h == nil {
			t.Error("nil harness leased")
		}
		mu.Lock()
		seen[h] = true
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 9 {
		t.Fatalf("%d results, want 9", len(out))
	}
	st := p.Stats()
	if st.Created != len(seen) {
		t.Fatalf("%d harnesses created for %d distinct leases", st.Created, len(seen))
	}
	if st.Created > 3 {
		t.Fatalf("%d harnesses created for 3 workers", st.Created)
	}
	// A second run over the same config must reuse the warmed devices.
	if _, err := MapHarness(o, cfg, 4, func(_ context.Context, h *core.Harness, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Reused == 0 {
		t.Fatalf("stats = %+v, want warm reuse on the second run", st)
	}
}

// TestHarnessNoLeaseWithoutJob pins that a worker the planner never
// feeds leases no harness: with these weights the weighted planner gives
// worker 0 an empty block, so only two of the three workers may touch
// the pool, for MapHarness and ReduceHarness alike.
func TestHarnessNoLeaseWithoutJob(t *testing.T) {
	weights := []float64{100, 1, 1, 1}
	if b := weightedBounds(weights, 3); b[0][0] != b[0][1] {
		t.Fatalf("bounds %v: worker 0 was meant to get an empty block", b)
	}
	cfg := config.SmallChip()
	job := func(_ context.Context, h *core.Harness, i int) (int, error) { return i, nil }
	runs := map[string]func(Options) error{
		"MapHarness": func(o Options) error {
			_, err := MapHarness(o, cfg, len(weights), job)
			return err
		},
		"ReduceHarness": func(o Options) error {
			return ReduceHarness(o, cfg, len(weights), job, func(int, int) error { return nil })
		},
	}
	for name, run := range runs {
		p := NewDevicePool()
		o := Options{Workers: 3, Pool: p, Planner: PlanWeighted, Weights: weights}
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := p.Stats(); st.Created+st.Reused != 2 {
			t.Fatalf("%s: stats = %+v, want 2 leases for 2 fed workers", name, st)
		}
	}
}

func TestMapHarnessSetupErrorSurfaces(t *testing.T) {
	cfg := config.SmallChip()
	cfg.SubarraySizes = []int{1} // breaks validation: sizes must sum to Rows
	_, err := MapHarness(Options{Pool: NewDevicePool()}, cfg, 4,
		func(_ context.Context, _ *core.Harness, i int) (int, error) { return i, nil })
	if err == nil {
		t.Fatal("invalid config did not surface a setup error")
	}
}
