package faultmodel

import (
	"math"
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// The hash-space screens (ThresholdFloor, the lite retention cut, the
// integer TrueCell cut) must never change an outcome. These tests pin
// each one against the per-bit float pipeline it stands in for.

// bruteLiteFlips is the per-bit oracle of RetentionLiteFlips: every
// charged bit whose RetentionSec, scaled by tscale, elapsed exceeds.
func bruteLiteFlips(m *Model, p *RowProfile, b addr.BankAddr, row int, elapsed, tscale float64, data []byte) []int {
	var out []int
	for i := 0; i < m.cfg.Geometry.RowBits(); i++ {
		var v byte
		if data != nil {
			v = (data[i>>3] >> (uint(i) & 7)) & 1
		}
		if Charged(p.IsTrue(i), v == 1) && elapsed > m.RetentionSec(b, row, i)*tscale {
			out = append(out, i)
		}
	}
	return out
}

// oddRowChip is SmallChip with 288-bit rows, so the last TrueCell word
// and the last row-image word are partial.
func oddRowChip() *config.Config {
	cfg := config.SmallChip()
	cfg.Geometry.Columns, cfg.Geometry.ColumnBytes = 9, 4
	cfg.ECC.WordBits = 32
	return cfg
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestThresholdFloorBoundsEveryBit checks float64(Thr[i]) >= floor for
// every bit over many seeds, rows and all eight channel presets, on the
// default model and on variants whose rows hit the ZFloor and HCFloor
// clamps at their minimum. The floor must also stay tight — within a few
// guard widths of the true row minimum — or the screen would be useless.
func TestThresholdFloorBoundsEveryBit(t *testing.T) {
	variants := map[string]func(*config.Config){
		"default": func(*config.Config) {},
		// A z floor near the median: every row's minimum is clamped.
		"zfloor": func(c *config.Config) { c.Fault.ZFloor = -0.5 },
		// An absolute floor above most thresholds: the minimum is HCFloor.
		"hcfloor": func(c *config.Config) { c.Fault.HCFloor = 1.5e6 },
	}
	for name, mutate := range variants {
		for seed := uint64(0); seed < 3; seed++ {
			cfg := config.SmallChip()
			cfg.Seed += seed * 0x9E37
			mutate(cfg)
			m := newModel(t, cfg)
			for ch := 0; ch < cfg.Geometry.Channels; ch++ {
				sigma := cfg.Fault.Channels[ch].Sigma
				for _, row := range []int{0, 1, 79, 400, cfg.Geometry.Rows - 1} {
					p := m.Profile(bank(ch, int(seed)%cfg.Geometry.PseudoChannels, ch%cfg.Geometry.Banks), row)
					floor := m.ThresholdFloor(p)
					thr, _, byThr := m.Thresholds(p)
					for i, v := range thr {
						if float64(v) < floor {
							t.Fatalf("%s seed %d ch %d row %d bit %d: threshold %v below floor %v",
								name, seed, ch, row, i, v, floor)
						}
					}
					min := float64(thr[byThr[0]])
					if floor < min*(1-3*screenGuard*(1+sigma)) {
						t.Fatalf("%s seed %d ch %d row %d: floor %v not within the guard of min %v",
							name, seed, ch, row, floor, min)
					}
					if name == "hcfloor" && min != float64(float32(cfg.Fault.HCFloor)) {
						t.Fatalf("hcfloor variant: row minimum %v, want the clamp %v", min, cfg.Fault.HCFloor)
					}
				}
			}
		}
	}
}

// TestRetentionLiteScreenExact puts elapsed exactly at, and one ulp
// either side of, individual bits' RetentionSec·tscale — the only places
// a screen error could show — and at the FloorSec·tscale early exit, and
// requires the screened lite scan to equal the per-bit exact scan there.
func TestRetentionLiteScreenExact(t *testing.T) {
	for _, cfg := range []*config.Config{config.SmallChip(), oddRowChip()} {
		testRetentionLiteScreenExact(t, cfg)
	}
}

func testRetentionLiteScreenExact(t *testing.T, cfg *config.Config) {
	m := newModel(t, cfg)
	s := rng.NewStream(7)
	rowBytes := cfg.Geometry.RowBytes()
	random := make([]byte, rowBytes)
	for i := range random {
		random[i] = byte(s.Next())
	}
	ones := make([]byte, rowBytes)
	for i := range ones {
		ones[i] = 0xFF
	}
	// A partially written row: mixed charged words.
	partial := make([]byte, rowBytes)
	copy(partial[:rowBytes/3], random)
	type rowAt struct {
		b   addr.BankAddr
		row int
	}
	rows := []rowAt{{bank(0, 0, 0), 3}, {bank(7, 1, 3), 250}, {bank(4, 0, 1), cfg.Geometry.Rows - 1}}
	// A row holding a cell clamped to FloorSec, whose lognormal time lies
	// below the floor: at elapsed ≈ FloorSec·tscale only the early exit
	// keeps the cut from flipping it.
	for row := 0; ; row++ {
		if row == cfg.Geometry.Rows {
			t.Fatal("no row with a retention time clamped to FloorSec")
		}
		if sec, _ := m.RowMinRetention(bank(1, 0, 0), row); sec == cfg.Ret.FloorSec {
			rows = append(rows, rowAt{bank(1, 0, 0), row})
			break
		}
	}
	for _, c := range rows {
		p := m.Profile(c.b, c.row)
		n := cfg.Geometry.RowBits()
		for _, tscale := range []float64{1, cfg.Ret.Scale(45), cfg.Ret.Scale(95)} {
			var points []float64
			for _, bit := range []int{0, 5, 64, n / 3, n - 2, n - 1} {
				at := m.RetentionSec(c.b, c.row, bit) * tscale
				points = append(points, at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)))
			}
			at := cfg.Ret.FloorSec * tscale
			points = append(points, at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)))
			for _, elapsed := range points {
				for _, img := range [][]byte{nil, ones, random, partial} {
					got := m.RetentionLiteFlips(p, elapsed, tscale, img, nil)
					want := bruteLiteFlips(m, p, c.b, c.row, elapsed, tscale, img)
					if !equalInts(got, want) {
						t.Fatalf("%d-bit rows, %v row %d tscale %v elapsed %v: screened %d flips, exact %d",
							n, c.b, c.row, tscale, elapsed, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestTrueCellIntegerCut pins the profile's integer orientation cut to
// rng.Bool bit for bit on every channel preset.
func TestTrueCellIntegerCut(t *testing.T) {
	for _, cfg := range []*config.Config{config.SmallChip(), oddRowChip()} {
		testTrueCellIntegerCut(t, cfg)
	}
}

func testTrueCellIntegerCut(t *testing.T, cfg *config.Config) {
	m := newModel(t, cfg)
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		b := bank(ch, 1, 2)
		const row = 42
		p := m.Profile(b, row)
		base := rng.Combine(cfg.Seed, domOrient,
			uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(row))
		for i := 0; i < cfg.Geometry.RowBits(); i++ {
			if want := rng.Bool(rng.Mix64(base+uint64(i)), cfg.Fault.Channels[ch].TrueCellFrac); p.IsTrue(i) != want {
				t.Fatalf("ch %d bit %d: IsTrue %v, rng.Bool %v", ch, i, p.IsTrue(i), want)
			}
		}
		// Bits past the row end stay clear in the partial last word.
		if n := cfg.Geometry.RowBits(); n%64 != 0 && p.TrueCell[n/64]>>(uint(n)%64) != 0 {
			t.Fatalf("ch %d: TrueCell bits set past the %d-bit row end", ch, n)
		}
	}
}

// BenchmarkRetentionLiteScan measures one lite-tier retention scan of a
// paper-geometry row holding random data at a ~10 s idle: the charged-
// word walk, one hash per charged bit and the cut's bisection.
func BenchmarkRetentionLiteScan(b *testing.B) {
	cfg := config.PaperChip()
	m := newModel(b, cfg)
	p := m.Profile(bank(3, 0, 5), 1000)
	data := make([]byte, cfg.Geometry.RowBytes())
	s := rng.NewStream(5)
	for i := range data {
		data[i] = byte(s.Next())
	}
	dst := make([]int, 0, cfg.Geometry.RowBits())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.RetentionLiteFlips(p, 10+float64(i%7), 1, data, dst[:0])
	}
}

// BenchmarkThresholdFloor measures the row floor's one-hash pass on a
// paper-geometry row (the cost a screened-out sense pays instead of the
// threshold tier).
func BenchmarkThresholdFloor(b *testing.B) {
	cfg := config.PaperChip()
	m := newModel(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ThresholdFloor(&RowProfile{key: cacheKey{bank: bank(3, 0, 5), row: i % cfg.Geometry.Rows}})
	}
}
