// Package faultmodel computes per-cell physical properties of the
// simulated HBM2 chip: RowHammer disturbance thresholds, data-retention
// times, and cell orientation (true vs anti cells).
//
// Every quantity is a deterministic function of (seed, coordinates), so the
// full 4 GiB device needs no materialized state. The model composes, per
// cell:
//
//	threshold = channelMedian                      (die/channel process corner)
//	          x exp(channelSigma * Z_cell)         (cell-to-cell lognormal)
//	          x positionFactor(row in subarray)    (distance to sense amps)
//	          x lastSubarrayFactor                 (weak final subarray)
//	          x rowJitter x bankJitter             (local process variation)
//
// with Z_cell truncated from below and the product clamped to an absolute
// floor. Data-dependent factors (neighbour coupling, intra-row pattern) are
// applied by the device at sense time, because they depend on stored data.
//
// Row profiles additionally carry lazily-built aggregates — a row
// threshold floor, per-word minimum thresholds, a threshold-sorted
// candidate index, and retention times with word/row minima — that let
// the device's sense fast path skip work without changing a single output
// bit (see internal/hbm/sense.go and DESIGN.md §8).
//
// Every per-bit draw is a monotone function of one hash (Mix64 of the
// coordinates, top 53 bits), so "can this bit flip?" is decided in hash
// space with an integer compare, and the exact float pipeline runs only
// for bits inside a thin guard band around the cutoff (ThresholdFloor,
// RetentionLiteFlips).
package faultmodel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/rng"
)

// Hash domain separators so draws for different per-cell quantities are
// independent even at equal coordinates.
const (
	domThreshold uint64 = 0x7468726573686F6C // "threshol"
	domOrient    uint64 = 0x6F7269656E740000 // "orient"
	domRowJit    uint64 = 0x726F776A69740000 // "rowjit"
	domBankJit   uint64 = 0x62616E6B6A697400 // "bankjit"
	domRetention uint64 = 0x726574656E740000 // "retent"
)

// screenGuard sets the width of the guard band around every hash-space
// screen: relative in the threshold floor, in z for the retention cut.
// Each per-bit pipeline (inverse CDF, exp, clamps, float32 rounding) is
// monotone in the bit's 53-bit hash except for Acklam's approximation
// error (≤ 1.15e-9 relative in z, so ≤ ~1e-8 absolute for |z| ≤ 7.04
// under the 1e-12 clamps, region seams included; rng's tests pin it) and
// a few ulps of rounding (float32: 6e-8). The guard is over ten times
// their sum, and a screen only decides bits that lie outside it.
const screenGuard = 1e-6

// hashSpace is the size of the 53-bit hash space the uniform draws use
// (rng.Uniform01 reads h>>11).
const hashSpace = uint64(1) << 53

// DefaultCacheBytes is the approximate memory budget of a model's profile
// cache. The entry capacity is derived from it so that small-geometry test
// chips cache thousands of rows while the paper-geometry chip (whose
// profiles are ~64x larger) stays within the same footprint.
const DefaultCacheBytes = 256 << 20

// Model evaluates the fault model for one chip instance.
type Model struct {
	cfg    *config.Config
	layout *addr.SubarrayLayout

	cache *profileCache
	// computes counts full profile computations, for the stampede tests
	// and cache-behaviour benchmarks.
	computes atomic.Int64
}

type cacheKey struct {
	bank addr.BankAddr
	row  int
}

// RowProfile holds the precomputed per-bit properties of one physical row.
// Slices are shared with the model's cache: callers must treat them as
// read-only. The expensive per-bit aggregates — thresholds and retention
// times, each a full pass of inverse-CDF and exp work — are built lazily
// on first need (Model.Thresholds / Model.RetentionPlan): a row whose
// disturbance never reaches its threshold floor never pays for its
// threshold index, and a row scanned for retention at most once never
// pays for its retention times.
type RowProfile struct {
	// TrueCell has bit i set when cell i is a true cell (charged at 1).
	TrueCell []uint64

	floorOnce sync.Once
	floor     float64
	thrOnce   sync.Once
	thr       *thrProfile
	retOnce   sync.Once
	ret       *retProfile

	// key records the row coordinates for the lazy builds.
	key cacheKey
}

// thrProfile holds the lazily-built disturbance-threshold aggregates of
// one row.
type thrProfile struct {
	// Thr[i] is the intrinsic disturbance threshold of bit i, in
	// double-sided hammer units.
	Thr []float32
	// WordMin[w] is the minimum Thr within 64-bit word w: a word whose
	// minimum exceeds the effective disturbance cannot flip, so a dense
	// sense scan skips it wholesale.
	WordMin []float32
	// ByThr lists bit indices in ascending Thr order (ties broken by bit
	// index), so a sparse sense scan visits only the bits that can
	// possibly flip and exits early at the first too-strong candidate.
	ByThr []uint32
}

// retProfile holds the lazily-built retention state of one row. It has
// two tiers. The lite tier keeps no per-bit state: a row's first
// long-idle sense screens its charged bits in hash space and evaluates the
// (expensive) lognormal only for the few inside the guard band. A row
// scanned repeatedly is promoted to the full tier, which computes every
// bit and derives the per-word and per-row minima that let later scans
// skip work wholesale.
type retProfile struct {
	// prefix is the coordinate hash folded up to (but excluding) the bit
	// index; logMedian caches log(MedianSec). Both are immutable after the
	// profile's sync.Once build, so the lite scan reads them unlocked.
	prefix    uint64
	logMedian float64

	// mu guards every field below: the promotion to the full tier mutates
	// shared state, and profiles are shared between concurrent model
	// users. The lock is taken once per scan, not per bit.
	mu sync.Mutex
	// Sec[i] is bit i's retention time at the reference temperature, equal
	// to Model.RetentionSec(bank, row, i) bit for bit. Built at promotion
	// to full.
	Sec []float64
	// WordMin[w] is the minimum Sec within 64-bit word w: when the elapsed
	// time cannot reach a word's weakest cell, the whole word is skipped.
	// Built at promotion to full.
	WordMin []float64
	// MinSec and MinBit are the row's weakest cell: the first bit holding
	// the minimum retention time. Valid once full.
	MinSec float64
	MinBit int
	full   bool
	// scans counts retention scans over this row; the second scan
	// triggers promotion to full.
	scans int
}

// IsTrue reports whether bit i is a true cell.
func (p *RowProfile) IsTrue(i int) bool {
	return p.TrueCell[i/64]&(1<<(uint(i)%64)) != 0
}

// New builds a fault model for the given validated configuration.
func New(cfg *config.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("faultmodel: %w", err)
	}
	m := &Model{
		cfg:    cfg,
		layout: cfg.Layout(),
	}
	m.cache = newProfileCache(defaultCacheEntries(cfg))
	return m, nil
}

// defaultCacheEntries derives the profile-cache entry capacity from the
// byte budget and the per-row profile footprint (threshold, orientation,
// candidate index, and retention aggregates).
func defaultCacheEntries(cfg *config.Config) int {
	bits := cfg.Geometry.RowBits()
	words := (bits + 63) / 64
	perEntry := bits*(4+4+4+8) + words*(8+4) + 256
	n := DefaultCacheBytes / perEntry
	if n < 64 {
		n = 64
	}
	return n
}

// Layout exposes the subarray layout the model was built with.
func (m *Model) Layout() *addr.SubarrayLayout { return m.layout }

// PositionFactor returns the threshold multiplier for a physical row due
// to its position within its subarray and the last-subarray effect. Edge
// rows (near the sense amplifiers) get the highest thresholds and centre
// rows the lowest, so BER peaks mid-subarray, reproducing Fig. 5's
// periodic pattern. The bank's final subarray is additionally hardened by
// LastSubarrayFactor: it exhibits far fewer bitflips in the paper, and
// fewer bitflips means higher thresholds.
func (m *Model) PositionFactor(physRow int) float64 {
	sa, off := m.layout.Locate(physRow)
	size := m.layout.Size(sa)
	f := m.cfg.Fault
	factor := f.MidFactor
	if size > 1 {
		t := float64(off) / float64(size-1) // 0 at first row, 1 at last
		// Cosine bump: EdgeFactor at t=0 and t=1, MidFactor at t=0.5.
		factor = f.MidFactor + (f.EdgeFactor-f.MidFactor)*(math.Cos(2*math.Pi*t)+1)/2
	}
	if sa == m.layout.Count()-1 {
		factor *= f.LastSubarrayFactor
	}
	return factor
}

// rowScale returns the row-level multiplier: position x row jitter x bank
// jitter.
func (m *Model) rowScale(b addr.BankAddr, physRow int) float64 {
	f := m.cfg.Fault
	seed := m.cfg.Seed
	rj := math.Exp(f.RowJitterSigma * rng.Normal(rng.Combine(
		seed, domRowJit, uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow))))
	bj := math.Exp(f.BankJitterSigma * rng.Normal(rng.Combine(
		seed, domBankJit, uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank))))
	return m.PositionFactor(physRow) * rj * bj
}

// Profile returns the cached per-bit profile of a physical row, computing
// it on first use. Concurrent first uses of the same row compute it once:
// latecomers block on the in-flight computation instead of duplicating it.
// The returned profile is shared: treat it as read-only.
func (m *Model) Profile(b addr.BankAddr, physRow int) *RowProfile {
	key := cacheKey{bank: b, row: physRow}
	p, claim := m.cache.get(key)
	if p != nil {
		return p
	}
	p = m.computeProfile(b, physRow)
	m.cache.put(m.cache.shardFor(key), claim, p)
	return p
}

func (m *Model) computeProfile(b addr.BankAddr, physRow int) *RowProfile {
	m.computes.Add(1)
	bits := m.cfg.Geometry.RowBits()
	words := (bits + 63) / 64
	prof := &RowProfile{
		TrueCell: make([]uint64, words),
		key:      cacheKey{bank: b, row: physRow},
	}
	ch := m.cfg.Fault.Channels[b.Channel]
	orientBase := rng.Combine(m.cfg.Seed, domOrient,
		uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow))
	// rng.Bool(h, TrueCellFrac) in its exact integer form, branch-free:
	// k and cut are below 2^54, so k-cut wraps to a set top bit exactly
	// when k < cut.
	cut := rng.BoolCut(ch.TrueCellFrac)
	for w := range prof.TrueCell {
		lo := w << 6
		hi := min(lo+64, bits)
		var word uint64
		for i := lo; i < hi; i++ {
			k := rng.Mix64(orientBase+uint64(i)) >> 11
			word |= (k - cut) >> 63 << uint(i-lo)
		}
		prof.TrueCell[w] = word
	}
	return prof
}

// thrParams are a row's inputs to the per-bit threshold pipeline.
type thrParams struct {
	base                          uint64
	scale, sigma, zFloor, hcFloor float64
}

func (m *Model) thrParams(key cacheKey) thrParams {
	b, physRow := key.bank, key.row
	ch := m.cfg.Fault.Channels[b.Channel]
	f := m.cfg.Fault
	return thrParams{
		base: rng.Combine(m.cfg.Seed, domThreshold,
			uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow)),
		scale:   ch.MedianHC * m.rowScale(b, physRow),
		sigma:   ch.Sigma,
		zFloor:  f.ZFloor,
		hcFloor: f.HCFloor,
	}
}

// of is the per-bit threshold pipeline on bit hash h: inverse CDF, ZFloor
// truncation, lognormal scaling, HCFloor clamp. With scale > 0 and
// sigma > 0 it is monotone in h>>11 up to the error screenGuard covers.
func (tp *thrParams) of(h uint64) float64 {
	z := rng.Normal(h)
	if z < tp.zFloor {
		z = tp.zFloor
	}
	thr := tp.scale * math.Exp(tp.sigma*z)
	if thr < tp.hcFloor {
		thr = tp.hcFloor
	}
	return thr
}

// ThresholdFloor returns a lower bound on every bit's threshold in the
// row — float64(Thr[i]) >= ThresholdFloor(p) for every bit i — at the
// cost of one hash pass: the threshold pipeline is monotone in the bit
// hash, so the row's smallest hash gives its smallest threshold, which is
// then widened by the guard band (relative screenGuard·(1+sigma): the
// inverse-CDF error enters through exp(sigma·z)). A sense whose screen
// lies below the floor cannot flip a bit, so it never builds the
// threshold tier. -Inf (no screen) when the pipeline is not monotone.
func (m *Model) ThresholdFloor(p *RowProfile) float64 {
	p.floorOnce.Do(func() {
		tp := m.thrParams(p.key)
		minH := ^uint64(0)
		for i, n := 0, m.cfg.Geometry.RowBits(); i < n; i++ {
			if h := rng.Mix64(tp.base + uint64(i)); h < minH {
				minH = h
			}
		}
		floor := tp.of(minH) * (1 - screenGuard*(1+tp.sigma))
		if !(tp.scale > 0) || math.IsInf(tp.scale, 0) || math.IsNaN(floor) {
			floor = math.Inf(-1)
		}
		p.floor = floor
	})
	return p.floor
}

// thresholds returns the lazily-built threshold aggregates of a profile.
// The build — a per-bit pass of inverse-CDF and exp work plus a radix
// argsort — is only paid for rows that are ever sensed with enough
// accumulated disturbance to reach the row's ThresholdFloor; aggressor
// rows, whose disturbance is cleared by their own activations, and rows
// that the floor screens out never need it.
func (m *Model) thresholds(p *RowProfile) *thrProfile {
	p.thrOnce.Do(func() {
		bits := m.cfg.Geometry.RowBits()
		words := (bits + 63) / 64
		tp := &thrProfile{
			Thr:     make([]float32, bits),
			WordMin: make([]float32, words),
			ByThr:   make([]uint32, bits),
		}
		for w := range tp.WordMin {
			tp.WordMin[w] = float32(math.Inf(1))
		}
		params := m.thrParams(p.key)
		// Sort keys are packed (IEEE bits << 32 | index): thresholds are
		// strictly positive, so their float32 bit patterns order exactly
		// like the values and one integer sort yields the candidate index
		// with deterministic index tie-breaking.
		keys := make([]uint64, 2*bits)
		tmp := keys[bits:]
		keys = keys[:bits]
		for i := 0; i < bits; i++ {
			t32 := float32(params.of(rng.Mix64(params.base + uint64(i))))
			tp.Thr[i] = t32
			if w := i >> 6; t32 < tp.WordMin[w] {
				tp.WordMin[w] = t32
			}
			keys[i] = uint64(math.Float32bits(t32))<<32 | uint64(i)
		}
		radixSortUint64(keys, tmp)
		for i, k := range keys {
			tp.ByThr[i] = uint32(k)
		}
		p.thr = tp
	})
	return p.thr
}

// Thresholds exposes a profile's disturbance-threshold aggregates: the
// per-bit thresholds, the per-word minima, and the ascending-threshold
// candidate index. Building them on first use is the expensive step; see
// thresholds.
func (m *Model) Thresholds(p *RowProfile) (thr, wordMin []float32, byThr []uint32) {
	tp := m.thresholds(p)
	return tp.Thr, tp.WordMin, tp.ByThr
}

// radixSortUint64 sorts keys ascending with an LSD byte radix, using tmp
// (same length) as the scatter buffer. Passes whose byte is constant
// across all keys are skipped, so the packed (float32 bits << 32 | index)
// profile keys cost ~5 effective passes. This runs once per computed
// profile; a comparison sort here was the single largest cost of profile
// construction.
func radixSortUint64(keys, tmp []uint64) {
	if len(keys) == 0 {
		return
	}
	src, dst := keys, tmp
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range src {
			counts[byte(k>>shift)]++
		}
		if counts[byte(src[0]>>shift)] == len(src) {
			continue // this byte is constant; the pass is a no-op
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[counts[d]] = k
			counts[d]++
		}
		src, dst = dst, src
	}
	// An odd number of executed scatter passes leaves the result in tmp.
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// retention returns the retention state of a profile. Creating it is
// cheap (two hashes' worth of coordinate folding); the per-bit times are
// only computed at promotion to the full tier (or via RowMinRetention).
func (m *Model) retention(p *RowProfile) *retProfile {
	p.retOnce.Do(func() {
		b, physRow := p.key.bank, p.key.row
		// Prefix-fold the coordinate hash: Combine is a left fold, so
		// Mix64(prefix ^ bit) equals Combine(..., bit) exactly.
		p.ret = &retProfile{
			prefix: rng.Combine(m.cfg.Seed, domRetention,
				uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow)),
			logMedian: math.Log(m.cfg.Ret.MedianSec),
		}
	})
	return p.ret
}

// retSec is the per-bit retention pipeline on bit hash h — bit-identical
// to RetentionSec.
func (m *Model) retSec(rp *retProfile, h uint64) float64 {
	r := m.cfg.Ret
	t := math.Exp(rp.logMedian + r.Sigma*rng.Normal(h))
	if t < r.FloorSec {
		t = r.FloorSec
	}
	return t
}

// retentionFull promotes a retention profile to the full tier: every bit
// computed, plus the per-word and per-row minima. The caller must hold
// rp.mu.
func (m *Model) retentionFull(rp *retProfile) *retProfile {
	if rp.full {
		return rp
	}
	bits := m.cfg.Geometry.RowBits()
	words := (bits + 63) / 64
	rp.Sec = make([]float64, bits)
	rp.WordMin = make([]float64, words)
	rp.MinSec = math.Inf(1)
	for w := range rp.WordMin {
		rp.WordMin[w] = math.Inf(1)
	}
	for i := 0; i < bits; i++ {
		t := m.retSec(rp, rng.Mix64(rp.prefix^uint64(i)))
		rp.Sec[i] = t
		if w := i >> 6; t < rp.WordMin[w] {
			rp.WordMin[w] = t
		}
		if t < rp.MinSec {
			rp.MinSec, rp.MinBit = t, i
		}
	}
	rp.full = true
	return rp
}

// RetentionPlan tells the sense path how to run a retention scan over
// this row, and counts the scan. On the full tier it returns the cached
// per-bit times plus the word/row minima (full=true): the scan can gate
// on the row minimum and skip whole words (the returned slices are
// immutable once full, so reading them without the lock is safe). Before
// that it returns full=false — the scan should run through
// RetentionLiteFlips, so a row's first long-idle sense (the common case:
// a freshly-touched row on a long-running device, about to be
// overwritten anyway) keeps no per-bit state at all. The second scan
// promotes the row to the full tier, so rows that are profiled
// repeatedly (the U-TRR retention side channel) get the aggregate-gated
// fast path.
func (m *Model) RetentionPlan(p *RowProfile) (sec, wordMin []float64, minSec float64, full bool) {
	rp := m.retention(p)
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if !rp.full {
		rp.scans++
		if rp.scans >= 2 {
			m.retentionFull(rp)
		}
	}
	if rp.full {
		return rp.Sec, rp.WordMin, rp.MinSec, true
	}
	return nil, nil, 0, false
}

// retentionCut returns the hash-space screen of a retention scan at
// elapsedSec under Arrhenius factor tscale: a bit whose 53-bit hash k
// (h>>11) is below lo flips, one at or above hi survives, and only bits
// in [lo, hi) need the exact math.
//
// Exactness: when elapsedSec <= FloorSec·tscale no retention time (each
// clamped to at least FloorSec) can be exceeded. Otherwise the clamp
// cannot change an outcome, and a bit flips exactly when its normal
// variate z lies below zc = (l - log(MedianSec)) / Sigma, with l =
// log(elapsedSec/tscale), up to rounding of order
// 1e-15·(1+|l|+|log MedianSec|)/Sigma in z. The band is zc ± g, with g
// screenGuard on that same scale (at least screenGuard, which covers
// rng.Normal's non-monotonicity), and its ends are bisected in hash
// space. Bisection leaves Normal(lo-1) < zc-g and Normal(hi) >= zc+g
// evaluated, so every k < lo (k >= hi) lies below (above) the band by
// the guard less the non-monotonicity. Degenerate parameters put every
// bit in the band.
func (m *Model) retentionCut(rp *retProfile, elapsedSec, tscale float64) (lo, hi uint64) {
	r := m.cfg.Ret
	if !(tscale > 0) || math.IsInf(tscale, 0) || !(r.Sigma > 0) {
		return 0, hashSpace
	}
	if !(elapsedSec > r.FloorSec*tscale) {
		return 0, 0
	}
	l := math.Log(elapsedSec / tscale)
	zc := (l - rp.logMedian) / r.Sigma
	g := screenGuard * (1 + (1+math.Abs(l)+math.Abs(rp.logMedian))/r.Sigma)
	if math.IsInf(zc, 0) || math.IsNaN(zc) || math.IsInf(g, 0) {
		return 0, hashSpace
	}
	lo = firstNormalAtLeast(zc-g, 0)
	return lo, firstNormalAtLeast(zc+g, lo)
}

// firstNormalAtLeast bisects [from, 2^53] for the first 53-bit hash k
// whose normal variate reaches z (2^53 when none does), treating
// rng.Normal as monotone.
func firstNormalAtLeast(z float64, from uint64) uint64 {
	lo, hi := from, hashSpace
	for lo < hi {
		mid := lo + (hi-lo)/2
		if rng.Normal(mid<<11) >= z {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// rowWord returns 64-bit word w of a row image (LSB-first within each
// byte, so bit i of the row is bit i%64 of word i/64); a nil image is the
// all-zero power-up pattern.
func rowWord(data []byte, w int) uint64 {
	if data == nil {
		return 0
	}
	lo := w << 3
	if lo+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[lo:])
	}
	var v uint64
	for j := lo; j < len(data); j++ {
		v |= uint64(data[j]) << (8 * uint(j-lo))
	}
	return v
}

// RetentionLiteFlips runs a lite-tier retention scan: it appends to dst,
// in ascending order, the bits that are charged under the row image data
// (LSB-first within each byte; nil means the all-zero power-up pattern)
// and whose retention time, scaled by tscale, is exceeded by elapsedSec.
// Charged bits are found a word at a time and screened in hash space
// (retentionCut): only those inside the guard band evaluate the
// lognormal. The scan keeps no state and takes no lock.
func (m *Model) RetentionLiteFlips(p *RowProfile, elapsedSec, tscale float64, data []byte, dst []int) []int {
	rp := m.retention(p)
	lo, hi := m.retentionCut(rp, elapsedSec, tscale)
	n := m.cfg.Geometry.RowBits()
	for w, trueCells := range p.TrueCell {
		// A cell is charged when it stores its true value: 1 in a true
		// cell, 0 in an anti cell.
		charged := ^(trueCells ^ rowWord(data, w))
		if rest := n - w<<6; rest < 64 {
			charged &= 1<<uint(rest) - 1
		}
		// Branch-free append: write every charged bit, keep it when it
		// flips. k < lo flips ((k-lo)>>63, as k, lo < 2^54); a k in the
		// band [lo, hi) takes the exact path, which is rare.
		out := slices.Grow(dst, bits.OnesCount64(charged))
		out = out[:cap(out)]
		j := len(dst)
		for ; charged != 0; charged &= charged - 1 {
			i := w<<6 | bits.TrailingZeros64(charged)
			h := rng.Mix64(rp.prefix ^ uint64(i))
			k := h >> 11
			out[j] = i
			j += int((k - lo) >> 63)
			if k-lo < hi-lo && elapsedSec > m.retSec(rp, h)*tscale {
				j++
			}
		}
		dst = out[:j]
	}
	return dst
}

// RetentionSec returns the retention time of one cell at the reference
// temperature (85 C), in seconds. The device scales it by the Arrhenius
// factor for the current ambient temperature.
func (m *Model) RetentionSec(b addr.BankAddr, physRow, bit int) float64 {
	r := m.cfg.Ret
	h := rng.Combine(m.cfg.Seed, domRetention,
		uint64(b.Channel), uint64(b.PseudoChannel), uint64(b.Bank), uint64(physRow), uint64(bit))
	t := rng.LogNormal(h, math.Log(r.MedianSec), r.Sigma)
	if t < r.FloorSec {
		t = r.FloorSec
	}
	return t
}

// RowMinRetention returns the smallest retention time in a physical row
// and the bit holding it. The U-TRR methodology profiles exactly this: the
// row's weakest cell determines when retention errors appear.
func (m *Model) RowMinRetention(b addr.BankAddr, physRow int) (sec float64, bit int) {
	rp := m.retention(m.Profile(b, physRow))
	rp.mu.Lock()
	defer rp.mu.Unlock()
	m.retentionFull(rp)
	return rp.MinSec, rp.MinBit
}

// ProfileComputes reports how many full profile computations the model has
// performed (for the cache-stampede tests and ablation benchmarks).
func (m *Model) ProfileComputes() int64 { return m.computes.Load() }

// Charged reports whether a cell holding the given bit value stores
// charge. True cells are charged when storing 1, anti cells when storing
// 0. Only charged cells can lose charge, so only they can flip — this is
// what makes RowHammer data-pattern dependent.
func Charged(isTrue, bitSet bool) bool { return isTrue == bitSet }

// CouplingFactor returns the threshold multiplier given how many of the
// two adjacent physical rows store the opposite value in the victim bit's
// column. More opposite-data aggressors couple more strongly (lower
// effective threshold multiplier).
func (m *Model) CouplingFactor(opposite int) float64 {
	f := m.cfg.Fault
	switch opposite {
	case 2:
		return f.CouplingBoth
	case 1:
		return f.CouplingOne
	default:
		return f.CouplingNone
	}
}

// IntraRowFactor returns the threshold multiplier due to the victim's
// same-row neighbours: alternating data (checkered patterns) protects
// slightly compared to uniform data (stripe patterns).
func (m *Model) IntraRowFactor(alternating bool) float64 {
	if alternating {
		return m.cfg.Fault.IntraRowAlternating
	}
	return 1
}

// DistanceWeight returns the disturbance contributed to a victim by one
// activation of an aggressor at the given physical row distance, or 0
// beyond the blast radius.
func (m *Model) DistanceWeight(distance int) float64 {
	if distance <= 0 || distance > len(m.cfg.Fault.DistanceWeights) {
		return 0
	}
	return m.cfg.Fault.DistanceWeights[distance-1]
}

// BlastRadius returns the maximum distance with nonzero disturbance.
func (m *Model) BlastRadius() int { return m.cfg.Fault.BlastRadius() }

// CacheLen reports the number of cached row profiles (for tests and
// ablation benchmarks).
func (m *Model) CacheLen() int { return m.cache.len() }

// SetCacheCap overrides the profile cache capacity in entries, dropping
// all cached profiles. A capacity of one disables caching benefits (every
// insert immediately evicts the previous entry); used by the ablation
// benchmarks. The default capacity is derived from DefaultCacheBytes.
func (m *Model) SetCacheCap(n int) { m.cache.setCap(n) }
