package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"github.com/safari-repro/hbmrh/internal/fleet"
)

// TestMain lets the fleet_scan coordinator re-execute the test binary as
// its shard workers.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == fleet.WorkerCommand {
		os.Exit(fleet.WorkerMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestBenchmarkCatalogMatchesBenchmarkJSON pins the metric names and
// units the benchmark prints to the ones BENCHMARK.json declares.
func TestBenchmarkCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(bf.Workloads), len(workloads))
	}
	same := func(kind string, declared []struct{ Name, Unit string }, catalog []metricSpec) {
		if len(declared) != len(catalog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the catalog %d", kind, len(declared), len(catalog))
			return
		}
		for i, m := range catalog {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], catalog %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestSelfTest runs every workload at the tiny size, untraced and then
// traced, and requires every correctness gate to pass and every metric
// of the catalog to be emitted. The traced run includes the gate that
// the traced paper_suite output equals the untraced one.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds resultsd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "resultsd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/resultsd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building resultsd: %v\n%s", err, out)
	}
	digests, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		workload string
		traced   bool
	}{
		{"paper_suite", false},
		{"fleet_scan", false},
		{"serve_mixed", false},
		{"paper_suite", true},
	}
	for _, r := range runs {
		b := &bench{
			workload: r.workload,
			seed:     7,
			seconds:  time.Second,
			traced:   r.traced,
			root:     "..",
			work:     filepath.Join(dir, "work", r.workload),
			resultsd: bin,
			digests:  digests,
			size:     tiny,
			log:      testWriter{t},
			metrics:  map[string]float64{},
			info:     map[string]any{},
		}
		res, err := b.execute(workloads[r.workload])
		if err != nil {
			t.Fatalf("%s (traced=%v): %v", r.workload, r.traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s (traced=%v): correct=%v failed=%d attempted=%d",
				r.workload, r.traced, res.Correct, res.Failed, res.Attempted)
		}
		if r.workload == "serve_mixed" {
			n304, _ := b.info["not_modified"].(int)
			ngz, _ := b.info["gzip_compared"].(int)
			if n304 == 0 || ngz == 0 {
				t.Errorf("serve_mixed gates checked nothing: %d 304s, %d gzip bodies compared", n304, ngz)
			}
		}
		want := endToEnd
		if r.traced {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s (traced=%v): %d metrics, want %d", r.workload, r.traced, len(res.Metrics), len(want))
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
