package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeriveSeedStability(t *testing.T) {
	a := DeriveSeed(42, "workload", "mtwnd")
	b := DeriveSeed(42, "workload", "mtwnd")
	if a != b {
		t.Fatalf("DeriveSeed not stable: %d != %d", a, b)
	}
	c := DeriveSeed(42, "workload", "dien")
	if a == c {
		t.Fatalf("DeriveSeed collision for distinct labels")
	}
	d := DeriveSeed(43, "workload", "mtwnd")
	if a == d {
		t.Fatalf("DeriveSeed collision for distinct master seeds")
	}
}

func TestDeriveSeedLabelBoundary(t *testing.T) {
	// ("ab","c") must differ from ("a","bc"): separators matter.
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Fatalf("label boundaries are ambiguous")
	}
}

func TestRNGDeterminism(t *testing.T) {
	r1 := Derive(7, "x")
	r2 := Derive(7, "x")
	for i := 0; i < 100; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := Derive(1, "exp")
	const rate = 2.5
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Exponential(rate))
	}
	if got, want := s.Mean(), 1/rate; math.Abs(got-want) > 0.01 {
		t.Fatalf("Exponential mean = %g, want ~%g", got, want)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for rate <= 0")
		}
	}()
	Derive(1, "bad").Exponential(0)
}

func TestNormalMoments(t *testing.T) {
	r := Derive(1, "norm")
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Normal(3, 2))
	}
	if math.Abs(s.Mean()-3) > 0.03 {
		t.Fatalf("Normal mean = %g, want ~3", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 0.03 {
		t.Fatalf("Normal stddev = %g, want ~2", s.StdDev())
	}
}

func TestLogNormalMean(t *testing.T) {
	r := Derive(1, "logn")
	d := LogNormalDist{Mu: 1.2, Sigma: 0.5}
	var s Summary
	for i := 0; i < 300000; i++ {
		s.Add(d.Sample(r))
	}
	if rel := math.Abs(s.Mean()-d.Mean()) / d.Mean(); rel > 0.02 {
		t.Fatalf("LogNormal mean = %g, want ~%g (rel err %g)", s.Mean(), d.Mean(), rel)
	}
}

func TestParetoTail(t *testing.T) {
	r := Derive(1, "pareto")
	const xm, alpha = 10.0, 2.0
	var s Summary
	for i := 0; i < 300000; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto sample %g below scale %g", v, xm)
		}
		s.Add(v)
	}
	want := xm * alpha / (alpha - 1)
	if rel := math.Abs(s.Mean()-want) / want; rel > 0.05 {
		t.Fatalf("Pareto mean = %g, want ~%g", s.Mean(), want)
	}
}

func TestHeavyTailLogNormalMeanAndTail(t *testing.T) {
	d := HeavyTailLogNormal{Mu: 2.0, Sigma: 0.8, TailProb: 0.05, TailScale: 60, TailShape: 2.5}
	r := Derive(1, "htln")
	var s Summary
	tailCount := 0
	const n = 400000
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v >= 60 {
			tailCount++
		}
		s.Add(v)
	}
	if rel := math.Abs(s.Mean()-d.Mean()) / d.Mean(); rel > 0.05 {
		t.Fatalf("heavy-tail mean = %g, want ~%g", s.Mean(), d.Mean())
	}
	// The tail mass must exceed what the pure log-normal body would put
	// beyond 60: the distribution is heavier-tailed than its body.
	bodyOnly := LogNormalDist{Mu: 2.0, Sigma: 0.8}
	rb := Derive(1, "htln-body")
	bodyTail := 0
	for i := 0; i < n; i++ {
		if bodyOnly.Sample(rb) >= 60 {
			bodyTail++
		}
	}
	if tailCount <= bodyTail {
		t.Fatalf("heavy-tail distribution is not heavier than its body: %d <= %d", tailCount, bodyTail)
	}
}

func TestHeavyTailMeanInfiniteForShapeLE1(t *testing.T) {
	d := HeavyTailLogNormal{Mu: 1, Sigma: 1, TailProb: 0.1, TailScale: 5, TailShape: 1}
	if !math.IsInf(d.Mean(), 1) {
		t.Fatalf("shape<=1 Pareto tail must have infinite mean")
	}
}

func TestClampedIntDist(t *testing.T) {
	d := ClampedIntDist{Dist: ConstantDist{V: 500}, Min: 1, Max: 128}
	r := Derive(1, "clamp")
	if got := d.SampleInt(r); got != 128 {
		t.Fatalf("clamp high: got %d", got)
	}
	d.Dist = ConstantDist{V: -3}
	if got := d.SampleInt(r); got != 1 {
		t.Fatalf("clamp low: got %d", got)
	}
	d.Dist = ConstantDist{V: 32.4}
	if got := d.SampleInt(r); got != 32 {
		t.Fatalf("round: got %d", got)
	}
}

func TestSummaryAgainstDirectComputation(t *testing.T) {
	xs := []float64{4, 7, 1, 9, 9, 2, 5.5, -3, 0, 12}
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	mean := MeanOf(xs)
	if math.Abs(s.Mean()-mean) > 1e-12 {
		t.Fatalf("mean mismatch: %g vs %g", s.Mean(), mean)
	}
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	want := varSum / float64(len(xs)-1)
	if math.Abs(s.Variance()-want) > 1e-12 {
		t.Fatalf("variance mismatch: %g vs %g", s.Variance(), want)
	}
	if s.Min() != -3 || s.Max() != 12 {
		t.Fatalf("extremes mismatch: min=%g max=%g", s.Min(), s.Max())
	}
	if s.N() != len(xs) {
		t.Fatalf("count mismatch")
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Fatalf("empty summary must be all zeros")
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {0.05, 10}, {0.1, 10}, {0.5, 50}, {0.99, 100}, {1, 100}, {0.91, 100}, {0.9, 90},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileEmptyAndClamp(t *testing.T) {
	if Percentile(nil, 0.5) != 0 {
		t.Fatalf("empty percentile must be 0")
	}
	xs := []float64{3, 1, 2}
	if got := Percentile(xs, -1); got != 1 {
		t.Fatalf("p<0 clamps to min, got %g", got)
	}
	if got := Percentile(xs, 2); got != 3 {
		t.Fatalf("p>1 clamps to max, got %g", got)
	}
	// Input must not be mutated.
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

// nearestRankIndex is the reference the selection kernel must match: the
// index of the nearest-rank p-quantile in a fully sorted copy of n values.
func nearestRankIndex(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank - 1
}

func sameValue(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

func TestPercentileMatchesSortReference(t *testing.T) {
	f := func(raw []float64, pRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := math.Mod(math.Abs(pRaw), 1)
		got := Percentile(xs, p)
		sort.Float64s(xs)
		return got == xs[nearestRankIndex(len(xs), p)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectRankMatchesSort checks the selection kernel against a full sort
// at the percentiles the simulator and the tools read. Random inputs have
// lengths 1-5000, heavy ties, +Inf entries (the latencies of shed queries)
// and a few NaNs; structured inputs are the classic quickselect worst
// cases. Every input also runs with a budget of zero unproductive rounds,
// which drives the sort fallback, and must come back a permutation of
// itself.
func TestSelectRankMatchesSort(t *testing.T) {
	ps := []float64{0, 0.5, 0.9, 0.99, 1}
	check := func(name string, xs []float64) {
		t.Helper()
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range ps {
			k := nearestRankIndex(len(xs), p)
			want := sorted[k]
			if got := Percentile(xs, p); !sameValue(got, want) {
				t.Fatalf("%s n=%d p=%g: Percentile = %g, want %g", name, len(xs), p, got, want)
			}
			inPlace := append([]float64(nil), xs...)
			forced := append([]float64(nil), xs...)
			for _, c := range []struct {
				how string
				got float64
				xs  []float64
			}{
				{"PercentileInPlace", PercentileInPlace(inPlace, p), inPlace},
				{"selectRank with budget 0", selectRank(forced, k, 0), forced},
			} {
				if !sameValue(c.got, want) {
					t.Fatalf("%s n=%d p=%g: %s = %g, want %g", name, len(xs), p, c.how, c.got, want)
				}
				sort.Float64s(c.xs)
				for i := range c.xs {
					if !sameValue(c.xs[i], sorted[i]) {
						t.Fatalf("%s n=%d p=%g: %s did not permute its input", name, len(xs), p, c.how)
					}
				}
			}
		}
	}

	r := NewRNG(13, 17)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(5000)
		distinct := 1 + r.IntN(n)
		infShare := r.Float64() * 0.3
		xs := make([]float64, n)
		for i := range xs {
			switch u := r.Float64(); {
			case u < infShare:
				xs[i] = math.Inf(1)
			case u < infShare+0.001:
				xs[i] = math.NaN()
			default:
				xs[i] = float64(r.IntN(distinct)) * 0.25
			}
		}
		check("random", xs)
	}

	for _, n := range []int{1, 2, 16, 17, 100, 1000, 4096, 5000} {
		asc := make([]float64, n)
		desc := make([]float64, n)
		equal := make([]float64, n)
		inf := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i)
			desc[i] = float64(n - i)
			equal[i] = 7
			inf[i] = math.Inf(1)
		}
		check("sorted", asc)
		check("reverse", desc)
		check("equal", equal)
		check("all-inf", inf)
		if n >= 3 {
			// The three smallest values sit where the first pivot is
			// sampled, so the first round keeps all but two elements.
			killer := append([]float64(nil), asc...)
			killer[n/2], killer[1] = killer[1], killer[n/2]
			killer[n-1], killer[2] = killer[2], killer[n-1]
			check("killer", killer)
		}
	}
}

func TestPercentileIsMonotoneInP(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionBelow(xs, 2.5); got != 0.5 {
		t.Fatalf("FractionBelow = %g, want 0.5", got)
	}
	if got := FractionBelow(xs, 4); got != 1 {
		t.Fatalf("inclusive boundary failed: %g", got)
	}
	if got := FractionBelow(nil, 1); got != 0 {
		t.Fatalf("empty input: %g", got)
	}
}

func TestFractionBelowPercentileConsistency(t *testing.T) {
	// Rsat(latencies, Percentile(latencies, p)) >= p must always hold:
	// the p-quantile is the smallest value with at least p mass below it.
	f := func(raw []float64, pRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := math.Mod(math.Abs(pRaw), 1)
		return FractionBelow(xs, Percentile(xs, p))+1e-12 >= p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
