package workload

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"ribbon/internal/models"
	"ribbon/internal/stats"
)

func TestGenerateBasicInvariants(t *testing.T) {
	m := models.MustLookup("MT-WND")
	st := Generate(m, Options{Queries: 5000, Seed: 1})
	if len(st.Queries) != 5000 {
		t.Fatalf("generated %d queries", len(st.Queries))
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("invalid stream: %v", err)
	}
	for i, q := range st.Queries {
		if q.ID != i {
			t.Fatalf("IDs not sequential at %d", i)
		}
		if q.Batch < 1 || q.Batch > m.Batch.MaxBatch {
			t.Fatalf("batch %d out of [1,%d]", q.Batch, m.Batch.MaxBatch)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := models.MustLookup("DIEN")
	a := Generate(m, Options{Queries: 500, Seed: 9})
	b := Generate(m, Options{Queries: 500, Seed: 9})
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := Generate(m, Options{Queries: 500, Seed: 10})
	same := true
	for i := range a.Queries {
		if a.Queries[i] != c.Queries[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestArrivalRateMatchesModel(t *testing.T) {
	m := models.MustLookup("CANDLE")
	st := Generate(m, Options{Queries: 60000, Seed: 3})
	gotRate := float64(len(st.Queries)-1) / st.Duration() * 1000 // qps
	if rel := math.Abs(gotRate-m.ArrivalRateQPS) / m.ArrivalRateQPS; rel > 0.03 {
		t.Fatalf("empirical rate %.1f qps, want ~%.1f", gotRate, m.ArrivalRateQPS)
	}
}

func TestRateScale(t *testing.T) {
	m := models.MustLookup("MT-WND")
	base := Generate(m, Options{Queries: 40000, Seed: 5})
	scaled := Generate(m, Options{Queries: 40000, Seed: 5, RateScale: 1.5})
	ratio := base.Duration() / scaled.Duration()
	if math.Abs(ratio-1.5) > 0.05 {
		t.Fatalf("1.5x load did not compress arrivals 1.5x: ratio %.3f", ratio)
	}
}

func TestPoissonInterArrivalCV(t *testing.T) {
	// Exponential inter-arrivals have coefficient of variation 1.
	m := models.MustLookup("MT-WND")
	st := Generate(m, Options{Queries: 50000, Seed: 6})
	var s stats.Summary
	prev := 0.0
	for _, q := range st.Queries {
		s.Add(q.ArrivalMs - prev)
		prev = q.ArrivalMs
	}
	cv := s.StdDev() / s.Mean()
	if math.Abs(cv-1) > 0.03 {
		t.Fatalf("inter-arrival CV = %.3f, want ~1 (Poisson)", cv)
	}
}

func TestGaussianBatchPreservesScaleAndTailMass(t *testing.T) {
	m := models.MustLookup("MT-WND")
	ht := Generate(m, Options{Queries: 80000, Seed: 7})
	ga := Generate(m, Options{Queries: 80000, Seed: 7, Batch: GaussianBatch})
	// The Gaussian variant targets the same location; truncation at 1
	// shifts its mean somewhat, but the scales must stay comparable.
	if rel := math.Abs(ht.MeanBatch()-ga.MeanBatch()) / ht.MeanBatch(); rel > 0.4 {
		t.Fatalf("batch means diverge: heavy %g vs gaussian %g", ht.MeanBatch(), ga.MeanBatch())
	}
	// The Gaussian spreads widely (sigma = 0.65x mean): a meaningful
	// fraction of queries exceeds twice the mean, keeping batch-size
	// pressure in play...
	frac := func(s *Stream, thresh float64) float64 {
		c := 0
		for _, q := range s.Queries {
			if float64(q.Batch) > thresh {
				c++
			}
		}
		return float64(c) / float64(len(s.Queries))
	}
	if f := frac(ga, 2*ga.MeanBatch()); f < 0.01 {
		t.Fatalf("Gaussian variant too narrow: only %.4f beyond 2x mean", f)
	}
	// ...while the extreme Pareto tail remains unique to the heavy-tail
	// distribution.
	if fh, fg := frac(ht, m.Batch.TailScale), frac(ga, m.Batch.TailScale); fg >= fh {
		t.Fatalf("Gaussian tail (%.4f) as heavy as the Pareto tail (%.4f)", fg, fh)
	}
}

func TestGenerateScheduleRateShift(t *testing.T) {
	m := models.MustLookup("MT-WND")
	st := GenerateSchedule(m, 8, HeavyTailLogNormalBatch, []Phase{
		{Queries: 20000, RateScale: 1},
		{Queries: 20000, RateScale: 1.5},
	})
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	t1 := st.Queries[19999].ArrivalMs
	t2 := st.Queries[39999].ArrivalMs - t1
	ratio := t1 / t2
	if math.Abs(ratio-1.5) > 0.06 {
		t.Fatalf("phase-2 arrivals not 1.5x faster: ratio %.3f", ratio)
	}
}

func TestGenerateSchedulePanicsOnBadInput(t *testing.T) {
	m := models.MustLookup("MT-WND")
	for _, phases := range [][]Phase{
		nil,
		{{Queries: 0, RateScale: 1}},
		{{Queries: 10, RateScale: 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", phases)
				}
			}()
			GenerateSchedule(m, 1, HeavyTailLogNormalBatch, phases)
		}()
	}
}

func TestGeneratePanicsOnBadOptions(t *testing.T) {
	m := models.MustLookup("MT-WND")
	for _, opts := range []Options{{Queries: 0}, {Queries: 5, RateScale: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", opts)
				}
			}()
			Generate(m, opts)
		}()
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := models.MustLookup("VGG19")
	st := Generate(m, Options{Queries: 200, Seed: 2})
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != st.Model || len(got.Queries) != len(st.Queries) {
		t.Fatalf("round trip lost data")
	}
	for i := range st.Queries {
		if got.Queries[i] != st.Queries[i] {
			t.Fatalf("query %d mismatch", i)
		}
	}
}

// A mixed-criticality stream records and replays losslessly, including the
// class annotations.
func TestJSONRoundTripWithClasses(t *testing.T) {
	m := models.MustLookup("MT-WND")
	st := Generate(m, Options{Queries: 300, Seed: 4,
		Mix: ClassMix{Critical: 1, Standard: 2, Sheddable: 1}})
	if !st.HasClasses() {
		t.Fatalf("mixed generation produced no class annotations")
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"class": "sheddable"`)) {
		t.Fatalf("serialized stream carries no class field:\n%.200s", buf.String())
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Queries {
		if got.Queries[i] != st.Queries[i] {
			t.Fatalf("query %d mismatch: %+v vs %+v", i, got.Queries[i], st.Queries[i])
		}
	}
}

// Traces recorded before criticality existed decode with no class field;
// the missing class defaults to Standard (empty string) and re-encodes
// without the field — old traces stay byte-stable through a round trip.
func TestJSONOldTraceClassDefaulting(t *testing.T) {
	old := `{"model":"X","queries":[{"id":0,"arrival_ms":1,"batch":2},{"id":1,"arrival_ms":3,"batch":1}]}`
	st, err := ReadJSON(bytes.NewBufferString(old))
	if err != nil {
		t.Fatal(err)
	}
	if st.HasClasses() {
		t.Fatalf("legacy trace must decode without class annotations")
	}
	for i, q := range st.Queries {
		if q.Class != "" {
			t.Fatalf("query %d class = %q, want empty", i, q.Class)
		}
		if q.Class.Normalize() != ClassStandard {
			t.Fatalf("query %d must normalize to standard", i)
		}
		if q.Class.Rank() != 1 {
			t.Fatalf("legacy class rank = %d, want 1", q.Class.Rank())
		}
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"class"`)) {
		t.Fatalf("legacy trace re-encoded with a class field:\n%.200s", buf.String())
	}
	again, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Queries {
		if again.Queries[i] != st.Queries[i] {
			t.Fatalf("round trip changed query %d", i)
		}
	}
}

// TestJSONWriteByteStable: serialization is a pure function of the stream —
// two WriteJSON calls produce identical bytes, and a decode/re-encode cycle
// is a byte-level fixed point. Checked-in traces (and the chaos replay
// artifacts built on the same idiom) rely on this to diff clean.
func TestJSONWriteByteStable(t *testing.T) {
	m := models.MustLookup("MT-WND")
	st := Generate(m, Options{Queries: 150, Seed: 9})

	var a, b bytes.Buffer
	if err := st.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteJSON calls on the same stream differ")
	}

	got, err := ReadJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := got.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), again.Bytes()) {
		t.Fatal("decode/re-encode changed the serialized bytes")
	}
	// A class-free stream stays legacy-shaped: no class key anywhere.
	if bytes.Contains(a.Bytes(), []byte(`"class"`)) {
		t.Fatalf("unclassed stream serialized a class field:\n%.200s", a.String())
	}
}

func TestAssignClassesDeterministicAndNonPerturbing(t *testing.T) {
	m := models.MustLookup("MT-WND")
	mix := ClassMix{Critical: 0.3, Standard: 0.5, Sheddable: 0.2}
	plain := Generate(m, Options{Queries: 2000, Seed: 6})
	mixed := Generate(m, Options{Queries: 2000, Seed: 6, Mix: mix})
	twin := Generate(m, Options{Queries: 2000, Seed: 6})
	twin.AssignClasses(6, mix)
	counts := map[Criticality]int{}
	for i := range plain.Queries {
		if plain.Queries[i].ArrivalMs != mixed.Queries[i].ArrivalMs ||
			plain.Queries[i].Batch != mixed.Queries[i].Batch {
			t.Fatalf("class mix perturbed arrivals/batches at %d", i)
		}
		if mixed.Queries[i] != twin.Queries[i] {
			t.Fatalf("AssignClasses not deterministic at %d", i)
		}
		counts[mixed.Queries[i].Class]++
	}
	// Weighted sampling must roughly hit the mix (loose 5-point bands).
	for _, tc := range []struct {
		c    Criticality
		want float64
	}{{ClassCritical, 0.3}, {ClassStandard, 0.5}, {ClassSheddable, 0.2}} {
		frac := float64(counts[tc.c]) / 2000
		if frac < tc.want-0.05 || frac > tc.want+0.05 {
			t.Errorf("class %s fraction %.3f, want ~%.2f", tc.c, frac, tc.want)
		}
	}
	if err := (ClassMix{Critical: -1}).Validate(); err == nil {
		t.Errorf("negative mix weight accepted")
	}
	if err := (ClassMix{Critical: math.Inf(1), Standard: 1}).Validate(); err == nil {
		t.Errorf("infinite mix weight accepted")
	}
	if err := (ClassMix{Standard: math.NaN()}).Validate(); err == nil {
		t.Errorf("NaN mix weight accepted")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("AssignClasses must panic on an invalid mix")
		}
	}()
	plain.AssignClasses(1, ClassMix{Sheddable: -2})
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"model":"X","queries":[{"id":0,"arrival_ms":5,"batch":0}]}`,
		`{"model":"X","queries":[{"id":0,"arrival_ms":5,"batch":1},{"id":1,"arrival_ms":4,"batch":1}]}`,
		`{"model":"X","queries":[{"id":0,"arrival_ms":5,"batch":1,"class":"vip"}]}`,
		`not json`,
		`{"model":"X","queries":[{"id":0,"arrival_ms":5,"batch":1}]}garbage`,
		`{"model":"X","querys":[{"id":0,"arrival_ms":5,"batch":1}]}`,
	}
	for _, c := range cases {
		if _, err := ReadJSON(bytes.NewBufferString(c)); err == nil {
			t.Errorf("accepted invalid stream %q", c)
		}
	}
}

// FuzzReadJSON: ReadJSON never panics, every stream it accepts passes
// Validate, and an accepted stream survives WriteJSON → ReadJSON unchanged.
func FuzzReadJSON(f *testing.F) {
	var gen bytes.Buffer
	st := Generate(models.MustLookup("MT-WND"), Options{Queries: 5, Seed: 3,
		Mix: ClassMix{Critical: 1, Standard: 2, Sheddable: 1}})
	if err := st.WriteJSON(&gen); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		gen.String(),
		`{"model":"X","queries":[{"id":0,"arrival_ms":1,"batch":2},{"id":1,"arrival_ms":3,"batch":1}]}`,
		`{"model":"X","queries":[]}`,
		`{"model":"X","queries":[{"id":0,"arrival_ms":5,"batch":1}]}garbage`,
		`{"model":"X","querys":[{"id":0,"arrival_ms":5,"batch":1}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("accepted stream fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := st.WriteJSON(&buf); err != nil {
			t.Fatalf("write accepted stream: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-read %s: %v", buf.Bytes(), err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatalf("round trip changed the stream:\n in %#v\nout %#v", st, back)
		}
	})
}

func TestStreamDurationAndMeanEmpty(t *testing.T) {
	var s Stream
	if s.Duration() != 0 || s.MeanBatch() != 0 {
		t.Fatalf("empty stream accessors must return 0")
	}
}

func TestBatchSamplerUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	BatchSampler(models.MustLookup("DIEN"), BatchKind(99))
}
