package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMix64Deterministic(t *testing.T) {
	if Mix64(42) != Mix64(42) {
		t.Fatal("Mix64 is not deterministic")
	}
	if Mix64(42) == Mix64(43) {
		t.Fatal("adjacent inputs should not collide")
	}
}

func TestMix64AvalancheProperty(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	f := func(x uint64, bit uint8) bool {
		b := uint(bit % 64)
		d := Mix64(x) ^ Mix64(x^(1<<b))
		n := popcount(d)
		return n >= 12 && n <= 52
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestCombineOrderSensitivity(t *testing.T) {
	if Combine(1, 2) == Combine(2, 1) {
		t.Fatal("Combine must be order sensitive")
	}
	if Combine(1, 2, 3) == Combine(1, 2) {
		t.Fatal("Combine must be length sensitive")
	}
}

func TestUniform01Bounds(t *testing.T) {
	f := func(h uint64) bool {
		u := Uniform01(h)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniform01Mean(t *testing.T) {
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += Uniform01(Mix64(uint64(i)))
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of Uniform01 = %v, want ~0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		z := Normal(Combine(7, uint64(i)))
		sum += z
		sumSq += z * z
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormInvRoundTrip(t *testing.T) {
	// normInv should invert the normal CDF: check a few known quantiles.
	cases := []struct {
		p, z float64
	}{
		{0.5, 0},
		{0.8413447460685429, 1},
		{0.15865525393145705, -1},
		{0.9772498680518208, 2},
		{0.001349898031630095, -3},
	}
	for _, c := range cases {
		got := normInv(c.p)
		if math.Abs(got-c.z) > 1e-6 {
			t.Errorf("normInv(%v) = %v, want %v", c.p, got, c.z)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	// Median of LogNormal(mu, sigma) is exp(mu); estimate it empirically.
	const n = 100001
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		xs = append(xs, LogNormal(Combine(3, uint64(i)), math.Log(50000), 1.1))
	}
	// Median via counting values below exp(mu).
	below := 0
	for _, x := range xs {
		if x < 50000 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestBoolProbability(t *testing.T) {
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if Bool(Combine(9, uint64(i)), 0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(p=0.3) hit rate = %v", frac)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(123), NewStream(123)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("streams with equal seeds diverged")
		}
	}
}

func TestStreamIntnRange(t *testing.T) {
	s := NewStream(5)
	for i := 0; i < 1000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestStreamIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewStream(1).Intn(0)
}

func TestShuffleIsPermutation(t *testing.T) {
	s := NewStream(99)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func BenchmarkMix64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Mix64(uint64(i))
	}
	_ = acc
}

func BenchmarkLogNormal(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += LogNormal(uint64(i), 11, 1.1)
	}
	_ = acc
}

// TestBoolCutMatchesBool pins the integer form of Bool: h>>11 <
// BoolCut(p) exactly when Bool(h, p), for hashes straddling the cut and
// random ones, at the edge probabilities, the channel presets'
// true-cell fractions, and their floating-point neighbours.
func TestBoolCutMatchesBool(t *testing.T) {
	base := []float64{0, 1, 0.5, 0.22, 0.24, 0.38, 0.40, 0.55, 0.57, 0.80, 0.85,
		1e-300, -0.25, 1.5, math.NaN()}
	var ps []float64
	for _, p := range base {
		ps = append(ps, p, math.Nextafter(p, math.Inf(-1)), math.Nextafter(p, math.Inf(1)))
	}
	s := NewStream(11)
	for _, p := range ps {
		cut := BoolCut(p)
		for d := -3; d <= 3; d++ {
			k := int64(cut) + int64(d)
			if k < 0 || k >= 1<<53 {
				continue
			}
			for _, low := range []uint64{0, 0x7FF} {
				h := uint64(k)<<11 | low
				if got, want := h>>11 < cut, Bool(h, p); got != want {
					t.Fatalf("p=%v h=%#x: integer cut %v, Bool %v", p, h, got, want)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			h := s.Next()
			if got, want := h>>11 < cut, Bool(h, p); got != want {
				t.Fatalf("p=%v h=%#x: integer cut %v, Bool %v", p, h, got, want)
			}
		}
	}
}

// normalDropTol bounds how far Normal may fall below an earlier value
// along ascending hashes. The fault model's hash-space screens widen
// their cuts by a guard of 1e-6 in z, which must cover this.
const normalDropTol = 1e-9

// TestNormalMonotoneWithinGuard walks consecutive 53-bit hashes across
// normInv's pLow/pHigh region seams, the 1e-12 clamps at both ends and
// the centre, and random windows, and checks that Normal never drops
// more than normalDropTol below its running maximum — the near-
// monotonicity the screens' exactness argument rests on.
func TestNormalMonotoneWithinGuard(t *testing.T) {
	const span = 200_000
	centres := []uint64{0, 1 << 52}
	for _, p := range []float64{1e-12, 0.02425, 1 - 0.02425, 1 - 1e-12} {
		centres = append(centres, uint64(p*(1<<53)))
	}
	s := NewStream(3)
	for i := 0; i < 8; i++ {
		centres = append(centres, s.Next()>>11)
	}
	centres = append(centres, 1<<53-1)
	for _, c := range centres {
		lo, hi := c, c+span
		if c > span {
			lo = c - span
		}
		if hi > 1<<53 {
			hi = 1 << 53
		}
		max := math.Inf(-1)
		for k := lo; k < hi; k++ {
			z := Normal(k << 11)
			if z < max-normalDropTol {
				t.Fatalf("Normal(k=%d) = %v, %g below an earlier %v", k, z, max-z, max)
			}
			if z > max {
				max = z
			}
		}
	}
	// Across windows: sorted random hashes, compared pairwise in order.
	ks := make([]uint64, 100_000)
	for i := range ks {
		ks[i] = s.Next() >> 11
	}
	slices.Sort(ks)
	max := math.Inf(-1)
	for _, k := range ks {
		z := Normal(k << 11)
		if z < max-normalDropTol {
			t.Fatalf("Normal(k=%d) = %v, below an earlier %v", k, z, max)
		}
		max = math.Max(max, z)
	}
	// The clamps: everything below 1e-12 (above 1-1e-12) maps to one value.
	if Normal(0) != Normal(1<<11) || Normal(^uint64(0)) != Normal(^uint64(0)-1<<11) {
		t.Fatal("Normal is not constant inside its clamps")
	}
}
