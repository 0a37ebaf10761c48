// Command perfbench is the end-to-end benchmark of the hbmrh pipeline.
// One invocation runs one workload and prints, as the last line of its
// standard output, a JSON object with the keys correct, attempted,
// failed and metrics:
//
//	perfbench --workload paper_suite|fleet_scan|serve_mixed --seed N
//	          --seconds S --trace 0|1 [-root DIR] [-resultsd BIN] [-work DIR]
//	          [-peak-rps R]
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured with tracing off. With --trace 1 the run traces one pass of
// every pipeline and reports the per-layer metrics instead. run.sh builds
// this binary and cmd/resultsd from the checkout and then runs it;
// README.md documents each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/safari-repro/hbmrh/internal/fleet"
)

func main() {
	// The fleet_scan coordinator re-executes this binary as its shard
	// workers, so the worker argv must reach the fleet package.
	if len(os.Args) > 1 && os.Args[1] == fleet.WorkerCommand {
		os.Exit(fleet.WorkerMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: drives chip seeds, the serve key mix and the ingest arrival order")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := fs.String("root", ".", "checkout root holding the program under test")
	resultsd := fs.String("resultsd", "", "resultsd binary (serve_mixed)")
	work := fs.String("work", "", "scratch directory (default ROOT/.bench_build/work)")
	peakRPS := fs.Float64("peak-rps", 0, "override the serve_mixed peak rate (for measuring the knee; results are not comparable)")
	record := fs.Bool("record", false, "recompute the recorded output digests into ROOT/perfbench/digests.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *work == "" {
		*work = filepath.Join(*root, ".bench_build", "work")
	}
	digestPath := filepath.Join(*root, "perfbench", "digests.json")
	if *record {
		if err := recordDigests(digestPath, standard); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	digests, err := loadDigests(digestPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	size := standard
	if *peakRPS > 0 {
		size.peakRPS = *peakRPS
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		root:     *root,
		work:     filepath.Join(*work, *workload),
		resultsd: *resultsd,
		digests:  digests,
		size:     size,
		log:      stderr,
		metrics:  map[string]float64{},
		info:     map[string]any{},
	}
	res, err := b.execute(wl)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ctx, _ := json.Marshal(b.context())
	fmt.Fprintf(stdout, "context %s\n", ctx)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// workloadFunc runs one workload's untraced timed phase.
type workloadFunc func(b *bench) error

var workloads = map[string]workloadFunc{
	"paper_suite": paperSuite,
	"fleet_scan":  fleetScan,
	"serve_mixed": serveMixed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is the state of one benchmark invocation.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string
	work     string
	resultsd string
	digests  digestTable
	size     sizes
	log      io.Writer

	tracers   []*tracer
	metrics   map[string]float64
	info      map[string]any
	attempted int
	failed    int
}

// fail records one failed operation or correctness-gate violation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(b.log, "perfbench: FAIL: "+format+"\n", args...)
}

// check is fail when ok is false; it returns ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		b.fail(format, args...)
	}
	return ok
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the workload (untraced) or every pipeline (traced) in a
// fresh scratch directory and assembles the result line from the
// catalog, so a metric the catalog names but the run did not measure is
// an error rather than a silently missing key.
func (b *bench) execute(wl workloadFunc) (*result, error) {
	if err := os.RemoveAll(b.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	catalog := endToEnd
	var err error
	if b.traced {
		catalog = perLayer
		err = traceAll(b)
	} else {
		err = wl(b)
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operation", b.workload)
	}
	for _, m := range catalog {
		v, ok := b.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", b.workload, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	b.info["error_rate"] = float64(b.failed) / float64(b.attempted)
	return res, nil
}

// timePasses runs pass for the run's length, at least once, and returns
// the wall time of every pass that succeeded (ms) and the total time.
// The peak-RSS counter restarts first, so it covers the passes only.
func (b *bench) timePasses(pass func(i int) error) (walls []float64, total time.Duration) {
	debug.FreeOSMemory()
	resetPeakRSS()
	defer b.stealSince(cpuTicks())
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
		t := time.Now()
		err := pass(i)
		b.attempted++
		if err != nil {
			b.fail("%s pass %d: %v", b.workload, i, err)
			continue
		}
		walls = append(walls, ms(time.Since(t)))
	}
	b.info["pass_ms"] = walls
	return walls, time.Since(start)
}

// context is the machine and run context printed beside every result.
func (b *bench) context() map[string]any {
	c := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"traced":     b.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"source":     sourceDigest(b.root),
	}
	for k, v := range b.info {
		c[k] = v
	}
	return c
}
