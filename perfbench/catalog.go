package main

import "time"

type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// each of them; README.md gives the per-workload meaning.
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"goodput_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, which traces one pass of
// every pipeline. README.md maps each to the end-to-end metric it should
// move.
var perLayer = []metricSpec{
	{"engine.pool_created", "count"},
	{"engine.pool_reused", "count"},
	{"engine.first_job_ms", "ms"},
	{"engine.idle_share", "share"},
	{"engine.tail_ms", "ms"},
	{"engine.scaling", "ratio"},
	{"engine.self_ms", "ms"},
	{"experiments.jobs", "count"},
	{"experiments.job_p50_ms", "ms"},
	{"experiments.job_max_ms", "ms"},
	{"experiments.fold_ms", "ms"},
	{"experiments.self_ms", "ms"},
	{"hbm.acts", "count"},
	{"hbm.refreshes", "count"},
	{"hbm.bitflips", "count"},
	{"core.ns_per_act", "ns"},
	{"hbm.new_ms", "ms"},
	{"results.merge_ms", "ms"},
	{"results.artifact_kb", "KB"},
	{"fleet.spawn_ms", "ms"},
	{"fleet.chunk_p50_ms", "ms"},
	{"fleet.chunks", "count"},
	{"fleet.exit_ms", "ms"},
	{"fleet.coord_ms", "ms"},
	{"fleet.launches", "count"},
	{"store.ingest_p50_ms", "ms"},
	{"store.pending_max", "count"},
	{"store.open_ms", "ms"},
	{"query.hit_p50_us", "us"},
	{"query.render_p50_ms", "ms"},
	{"query.render_share", "share"},
	{"query.bytes_per_read", "B"},
	{"net.floor_p50_us", "us"},
	{"serve.read_p99_us", "us"},
	{"serve.peak_read_p99_us", "us"},
	{"serve.ingest_p50_ms", "ms"},
	{"serve.ingest_p90_ms", "ms"},
	{"serve.send_lag_p99_us", "us"},
	{"trace.overhead_ms", "ms"},
}

// sizes fixes every workload parameter that is not drawn from the seed.
type sizes struct {
	// paper_suite: the registry paper suite on one chip per pass, drawn
	// from a pool of paperPool chip seeds.
	paperChip       string
	paperPool       int
	paperRows       int
	paperBankRows   int
	paperHammers    int
	paperIterations int

	// fleet_scan: multichip scans of the small chip's first fleetChips
	// seeds.
	fleetChips   int
	fleetRows    int
	fleetWorkers int

	// serve_mixed: corpora sizes, offered rates and the read latency
	// limit that defines goodput.
	serveRows     int
	servePrepop   int // chip seeds of the pre-populated multichip corpus
	serveShards   int // shards of the pre-populated multichip corpus
	serveGrowing  int // single-seed shards of the growing corpus
	serveKeys     int // distinct read URLs per corpus
	nominalRPS    float64
	peakRPS       float64
	readLimit     time.Duration
	sendLagLimit  time.Duration
	serveMinPhase time.Duration // shortest timed phase, both rates together
}

// standard is the benchmark's configuration; tiny is the self-test's.
var standard = sizes{
	paperChip:       "paper",
	paperPool:       8,
	paperRows:       2,
	paperBankRows:   2,
	paperHammers:    30000,
	paperIterations: 60,
	fleetChips:      32,
	fleetRows:       2,
	fleetWorkers:    2,
	serveRows:       2,
	servePrepop:     16,
	serveShards:     4,
	serveGrowing:    121,
	serveKeys:       48,
	nominalRPS:      500,
	peakRPS:         1000,
	readLimit:       20 * time.Millisecond,
	sendLagLimit:    5 * time.Millisecond,
	serveMinPhase:   10 * time.Second,
}

var tiny = sizes{
	paperChip:       "small",
	paperPool:       2,
	paperRows:       1,
	paperBankRows:   1,
	paperHammers:    30000,
	paperIterations: 8,
	fleetChips:      4,
	fleetRows:       1,
	fleetWorkers:    2,
	serveRows:       1,
	servePrepop:     4,
	serveShards:     2,
	serveGrowing:    9,
	serveKeys:       12,
	nominalRPS:      200,
	peakRPS:         400,
	readLimit:       50 * time.Millisecond,
	sendLagLimit:    50 * time.Millisecond,
	serveMinPhase:   2 * time.Second,
}
