package perf

import (
	"math"
	"testing"
	"testing/quick"

	"ribbon/internal/cloud"
	"ribbon/internal/models"
	"ribbon/internal/stats"
)

// fig3Instances is the six-instance set shown in Fig. 3 of the paper.
func fig3Instances(t *testing.T) []cloud.InstanceType {
	t.Helper()
	fams := []string{"r5n", "r5", "m5n", "t3", "c5", "g4dn"}
	out := make([]cloud.InstanceType, len(fams))
	for i, f := range fams {
		out[i] = cloud.MustLookup(f)
	}
	return out
}

func scoreByFamily(scores []Score) map[string]Score {
	m := make(map[string]Score, len(scores))
	for _, s := range scores {
		m[s.Instance.Family] = s
	}
	return m
}

func TestAllCatalogFamiliesCalibrated(t *testing.T) {
	m := models.MustLookup("MT-WND")
	for _, inst := range cloud.Catalog() {
		if l := ServiceMs(m, inst, 1); l <= 0 {
			t.Errorf("%s: non-positive latency %g", inst.Family, l)
		}
	}
}

func TestServiceMsPanicsOnBadInput(t *testing.T) {
	m := models.MustLookup("MT-WND")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for batch < 1")
		}
	}()
	ServiceMs(m, cloud.MustLookup("t3"), 0)
}

func TestServiceMsPanicsOnUnknownFamily(t *testing.T) {
	m := models.MustLookup("MT-WND")
	unknown := cloud.InstanceType{Family: "p4d", Size: "24xlarge"}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for uncalibrated family")
		}
	}()
	ServiceMs(m, unknown, 1)
}

// Latency must be non-decreasing in batch size for every (model, instance).
func TestLatencyMonotoneInBatch(t *testing.T) {
	for _, m := range models.Catalog() {
		for _, inst := range cloud.Catalog() {
			prev := 0.0
			for b := 1; b <= 256; b++ {
				l := ServiceMs(m, inst, b)
				if l < prev {
					t.Fatalf("%s on %s: latency decreased at batch %d (%g -> %g)",
						m.Name, inst.Family, b, prev, l)
				}
				prev = l
			}
		}
	}
}

// Fig. 3a, batch 32: all six instances have "similarly high" performance —
// every instance is within 2.2x of the best.
func TestFig3SmallBatchPerformanceSimilar(t *testing.T) {
	m := models.MustLookup("MT-WND")
	scores := ScoreInstances(m, fig3Instances(t), 32)
	for _, s := range scores {
		if s.NormPerformance < 0.45 {
			t.Errorf("batch 32: %s normalized performance %.2f < 0.45 (should be similarly high)",
				s.Instance.Family, s.NormPerformance)
		}
	}
}

// Fig. 3a, batch 128: g4dn significantly outperforms every other type.
func TestFig3LargeBatchGPUDominates(t *testing.T) {
	m := models.MustLookup("MT-WND")
	scores := scoreByFamily(ScoreInstances(m, fig3Instances(t), 128))
	g := scores["g4dn"]
	if g.NormPerformance != 1 {
		t.Fatalf("g4dn must be the best performer at batch 128, norm=%.2f", g.NormPerformance)
	}
	for fam, s := range scores {
		if fam == "g4dn" {
			continue
		}
		if s.QPS*1.5 > g.QPS {
			t.Errorf("batch 128: g4dn only %.2fx faster than %s, want >= 1.5x",
				g.QPS/s.QPS, fam)
		}
	}
}

// Fig. 3b: r5/r5n are the most cost-effective at both batch sizes; g4dn is
// the least cost-effective at batch 32 and in the bottom half at batch 128.
// (Strictly-lowest at batch 128 is numerically incompatible with real AWS
// prices once the GPU dominates performance; see EXPERIMENTS.md.)
func TestFig3CostEffectivenessRanking(t *testing.T) {
	m := models.MustLookup("MT-WND")
	for _, batch := range []int{32, 128} {
		scores := scoreByFamily(ScoreInstances(m, fig3Instances(t), batch))
		best := ""
		bestCE := -1.0
		for fam, s := range scores {
			if s.QueriesPerDollar > bestCE {
				bestCE, best = s.QueriesPerDollar, fam
			}
		}
		if best != "r5" && best != "r5n" {
			t.Errorf("batch %d: most cost-effective is %s, want r5/r5n", batch, best)
		}
		if scores["r5"].NormCostEff < scores["g4dn"].NormCostEff {
			t.Errorf("batch %d: r5 less cost-effective than g4dn", batch)
		}
	}
	// Batch 32: g4dn strictly lowest.
	scores := scoreByFamily(ScoreInstances(m, fig3Instances(t), 32))
	for fam, s := range scores {
		if fam == "g4dn" {
			continue
		}
		if s.QueriesPerDollar <= scores["g4dn"].QueriesPerDollar {
			t.Errorf("batch 32: %s cost-effectiveness %.0f <= g4dn %.0f",
				fam, s.QueriesPerDollar, scores["g4dn"].QueriesPerDollar)
		}
	}
	// Batch 128: g4dn in the bottom half of the six.
	scores = scoreByFamily(ScoreInstances(m, fig3Instances(t), 128))
	below := 0
	for fam, s := range scores {
		if fam != "g4dn" && s.QueriesPerDollar < scores["g4dn"].QueriesPerDollar {
			below++
		}
	}
	if below > 2 {
		t.Errorf("batch 128: g4dn should be in the bottom half, but %d of 5 instances are cheaper per query", below)
	}
}

// The performance ranking and the cost-effectiveness ranking must differ —
// the trade-off that motivates the whole paper (Sec. 3.1).
func TestPerfAndCostEffRankingsDiffer(t *testing.T) {
	m := models.MustLookup("MT-WND")
	for _, batch := range []int{32, 128} {
		scores := ScoreInstances(m, fig3Instances(t), batch)
		perfBest, ceBest := "", ""
		bq, bc := -1.0, -1.0
		for _, s := range scores {
			if s.QPS > bq {
				bq, perfBest = s.QPS, s.Instance.Family
			}
			if s.QueriesPerDollar > bc {
				bc, ceBest = s.QueriesPerDollar, s.Instance.Family
			}
		}
		if perfBest == ceBest {
			t.Errorf("batch %d: best performer %s is also most cost-effective — no trade-off", batch, perfBest)
		}
	}
}

// Every model's largest query must fit within QoS on the model's primary
// (highest-performance in-pool) instance — Sec. 5.1 chose targets that way.
func TestLargestQueryFitsOnPrimaryInstance(t *testing.T) {
	primary := map[string]string{
		"CANDLE": "c5a", "ResNet50": "c5a", "VGG19": "c5a",
		"MT-WND": "g4dn", "DIEN": "g4dn",
	}
	for name, fam := range primary {
		m := models.MustLookup(name)
		inst := cloud.MustLookup(fam)
		l := ServiceMs(m, inst, m.Batch.MaxBatch)
		if l > m.QoSLatencyMs*0.9 {
			t.Errorf("%s: largest batch %d takes %.1fms on %s, too close to the %gms target",
				name, m.Batch.MaxBatch, l, fam, m.QoSLatencyMs)
		}
	}
}

func TestThroughputAndCostEffConsistent(t *testing.T) {
	m := models.MustLookup("CANDLE")
	inst := cloud.MustLookup("c5a")
	q := ThroughputQPS(m, inst, 16)
	if math.Abs(q*ServiceMs(m, inst, 16)-1000) > 1e-9 {
		t.Fatalf("QPS is not the reciprocal of mean latency")
	}
	ce := CostEffectiveness(m, inst, 16)
	if math.Abs(ce-3600*q/inst.PricePerHour) > 1e-9 {
		t.Fatalf("cost-effectiveness does not follow Eq. 1")
	}
}

func TestNoisyServiceMsStatistics(t *testing.T) {
	m := models.MustLookup("MT-WND")
	inst := cloud.MustLookup("g4dn")
	r := stats.Derive(3, "perf-noise")
	base := ServiceMs(m, inst, 64)
	var s stats.Summary
	for i := 0; i < 50000; i++ {
		v := NoisyServiceMs(m, inst, 64, r)
		if v <= 0 {
			t.Fatalf("non-positive noisy latency")
		}
		s.Add(v)
	}
	if rel := math.Abs(s.Mean()-base) / base; rel > 0.01 {
		t.Fatalf("noise is biased: mean %.3f vs base %.3f", s.Mean(), base)
	}
	cv := s.StdDev() / s.Mean()
	if cv < 0.04 || cv > 0.09 {
		t.Fatalf("noise coefficient of variation %.3f outside [0.04, 0.09]", cv)
	}
}

func TestScoreInstancesEmpty(t *testing.T) {
	if got := ScoreInstances(models.MustLookup("DIEN"), nil, 32); got != nil {
		t.Fatalf("expected nil for empty instance list")
	}
}

func TestScoresNormalizedToOne(t *testing.T) {
	for _, m := range models.Catalog() {
		for _, batch := range []int{8, 32, 128} {
			scores := ScoreInstances(m, cloud.Catalog(), batch)
			maxP, maxC := 0.0, 0.0
			for _, s := range scores {
				if s.NormPerformance > maxP {
					maxP = s.NormPerformance
				}
				if s.NormCostEff > maxC {
					maxC = s.NormCostEff
				}
				if s.NormPerformance <= 0 || s.NormPerformance > 1+1e-12 {
					t.Fatalf("%s b=%d: norm perf %g out of (0,1]", m.Name, batch, s.NormPerformance)
				}
				if s.NormCostEff <= 0 || s.NormCostEff > 1+1e-12 {
					t.Fatalf("%s b=%d: norm CE %g out of (0,1]", m.Name, batch, s.NormCostEff)
				}
			}
			if math.Abs(maxP-1) > 1e-12 || math.Abs(maxC-1) > 1e-12 {
				t.Fatalf("%s b=%d: normalization anchors missing", m.Name, batch)
			}
		}
	}
}

// Property: doubling the batch never more than (2 + overhead)x the latency
// and never less than 1x — i.e. scaling stays physical.
func TestBatchScalingPhysical(t *testing.T) {
	f := func(bRaw uint8, modelIdx, instIdx uint8) bool {
		ms := models.Catalog()
		is := cloud.Catalog()
		m := ms[int(modelIdx)%len(ms)]
		inst := is[int(instIdx)%len(is)]
		b := 1 + int(bRaw%96)
		l1 := ServiceMs(m, inst, b)
		l2 := ServiceMs(m, inst, 2*b)
		return l2 >= l1 && l2 <= 2*l1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
