package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split(0)
	c2 := root.Split(1)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children coincide on first draw")
	}
}

func TestSplitReproducible(t *testing.T) {
	mk := func() uint64 {
		r := New(99)
		return r.Split(5).Uint64()
	}
	if mk() != mk() {
		t.Fatal("Split is not deterministic")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(9)
	f := func(a, b uint8) bool {
		n := int(a%200) + 1
		k := int(b) % (n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(10)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(12)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	const p, trials = 0.05, 50000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / trials
	want := (1 - p) / p
	if math.Abs(mean-want) > want*0.05 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(14)
	for i := 0; i < 100; i++ {
		if r.Geometric(1) != 0 {
			t.Fatal("Geometric(1) != 0")
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(15)
	const trials = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / trials
	variance := sum2/trials - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(77)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	snap := r.State()
	want := make([]uint64, 8)
	for i := range want {
		want[i] = r.Uint64()
	}
	// Restoring the snapshot must replay the exact sequence, repeatedly.
	for round := 0; round < 3; round++ {
		r.SetState(snap)
		for i, w := range want {
			if got := r.Uint64(); got != w {
				t.Fatalf("round %d draw %d: %x != %x", round, i, got, w)
			}
		}
	}
}

func TestReseedSplitMatchesSplit(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xDEADBEEF} {
		p1, p2 := New(seed), New(seed)
		var child RNG
		for w := uint64(0); w < 5; w++ {
			want := p1.Split(w)
			child.ReseedSplit(p2, w)
			for i := 0; i < 8; i++ {
				if a, b := want.Uint64(), child.Uint64(); a != b {
					t.Fatalf("seed %d worker %d draw %d: %x != %x", seed, w, i, a, b)
				}
			}
		}
		// The parents must have advanced identically too.
		if p1.Uint64() != p2.Uint64() {
			t.Fatal("parents diverged")
		}
	}
}
