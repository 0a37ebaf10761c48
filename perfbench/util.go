package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/safari-repro/hbmrh/internal/report"
	"github.com/safari-repro/hbmrh/internal/results"
)

// quantile returns the nearest-rank q-quantile of xs (sorting a copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i > 0 {
		i--
	}
	return s[min(i, len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summaryCSV renders an artifact's summary CSV at its stored axis, the
// bytes `characterize -csv` exports.
func summaryCSV(a *results.Artifact) ([]byte, error) {
	gb, err := results.ParseGroupBy(a.Meta.GroupBy)
	if err != nil {
		return nil, err
	}
	headers, rows, err := a.SummaryCSV(gb)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf, headers, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// resetPeakRSS restarts this process's peak-RSS counter, so the peak
// reflects the timed phase and not set-up.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) float64 {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// childrenPeakRSSMB is the peak RSS of the largest waited-for child.
func childrenPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTicks reads the machine's cumulative CPU time and the part of it
// the hypervisor gave to other guests (steal), in clock ticks.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	fields := strings.Fields(line)
	for i, f := range fields[1:min(9, len(fields))] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealSince records, as steal_share in the context line, the share of
// CPU time since the cpuTicks reading (steal0, total0) that the
// hypervisor took away: a busy host slows every timing of the run.
func (b *bench) stealSince(steal0, total0 uint64) {
	steal, total := cpuTicks()
	if total > total0 {
		b.info["steal_share"] = float64(steal-steal0) / float64(total-total0)
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the program under test: a hash over every Go
// source and go.mod file of the checkout. The checkout need not be a git
// repository, so this stands in for the commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestTable maps an output identity (workload, size and inputs) to the
// SHA-256 of its exported summary CSV, and a traced paper pass to its
// exact job and device counts, as recorded by -record.
type digestTable map[string]string

func loadDigests(path string) (digestTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading recorded digests: %w", err)
	}
	t := digestTable{}
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return t, nil
}

// recordDigests recomputes the recorded digests of the given size and
// of the self-test's tiny size.
func recordDigests(path string, s sizes) error {
	t := digestTable{}
	for _, sz := range []sizes{s, tiny} {
		for j := 0; j < sz.paperPool; j++ {
			d, err := runPaper(paperChip(sz, j), sz, 0)
			if err != nil {
				return err
			}
			t[paperKey(sz, j)] = d
		}
		pt := &paperTrace{epoch: time.Now()}
		if _, err := runPaperTraced(pt, paperChip(sz, 0), sz, 1, 0); err != nil {
			return err
		}
		t[countsKey(sz, 0)] = pt.counts()
		d, err := fleetReference(sz, sz.fleetChips)
		if err != nil {
			return err
		}
		t[fleetKey(sz, sz.fleetChips)] = d
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkRecorded compares an output digest or exact counts with the
// recorded value.
func (b *bench) checkRecorded(key, got string) {
	want, ok := b.digests[key]
	b.check(ok, "nothing recorded for %s", key)
	b.check(!ok || want == got, "%s: measured %s, recorded %s", key, got, want)
}

// sleepUntil sleeps until t. The runtime's timers wake up to a
// millisecond late, which would swamp sub-millisecond latencies timed
// from a schedule, so the last stretch is a nanosleep system call that
// wakes spinEarly ahead of t (a wake-up is tens to hundreds of
// microseconds late on a busy host), and the rest is spent yielding.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d > 3*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
		d = time.Until(t)
	}
	if d > spinEarly {
		ts := syscall.NsecToTimespec(int64(d - spinEarly))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only spins longer
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinEarly is how long before a scheduled send the generator stops
// sleeping and starts yielding.
const spinEarly = 300 * time.Microsecond

// lineTap copies writes to next and hands each complete line to onLine.
type lineTap struct {
	next   io.Writer
	buf    []byte
	onLine func(line []byte, at time.Time)
}

func (t *lineTap) Write(p []byte) (int, error) {
	at := time.Now()
	t.buf = append(t.buf, p...)
	for {
		i := bytes.IndexByte(t.buf, '\n')
		if i < 0 {
			break
		}
		t.onLine(t.buf[:i], at)
		t.buf = t.buf[i+1:]
	}
	return t.next.Write(p)
}
