package serving_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"ribbon/internal/chaos"
	"ribbon/internal/dispatch"
	"ribbon/internal/experiments"
	"ribbon/internal/models"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// goldenEvaluateFingerprint is the FNV-64a hash of every Result bit that
// TestEvaluateGoldenFingerprint produces. It was recorded before the
// service-time table and the selection kernel replaced the per-query
// latency formula and the full sort, so it pins both to the simulator's
// original output.
const goldenEvaluateFingerprint = 0x35e5dac86ad29c04

// TestEvaluateGoldenFingerprint pins Evaluate bit for bit: the five paper
// models on their Table 3 pools, every dispatch kind, a 1:2:1 class-mixed
// stream, two seeds (the second with early termination on), a small
// configuration grid from starved to over-provisioned, and one capacity
// churn storm. Any change to the simulator kernel that moves one bit of one
// Result field fails here.
func TestEvaluateGoldenFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds in the latency
		// arithmetic, which legitimately moves low-order bits.
		t.Skip("golden fingerprint recorded on amd64")
	}
	h := fnv.New64a()
	grid := []serving.Config{{1, 0, 0}, {0, 1, 1}, {1, 1, 1}, {2, 1, 3}, {4, 2, 0}, {3, 3, 3}, {8, 0, 2}}
	mix := workload.ClassMix{Critical: 1, Standard: 2, Sheddable: 1}
	n := 0
	for _, name := range experiments.ModelNames() {
		spec := serving.MustNewPoolSpec(models.MustLookup(name), 0.99, experiments.PoolFor(name)...)
		for _, kind := range dispatch.Kinds() {
			for _, seed := range []uint64{1, 2} {
				opts := serving.SimOptions{Queries: 1500, Seed: seed, Mix: mix, Dispatch: dispatch.Spec{Kind: kind}}
				if seed == 2 {
					opts.AbortQueueLength = 150
				}
				ev := serving.NewSimEvaluator(spec, opts)
				for _, cfg := range grid {
					hashResult(h, ev.Evaluate(cfg))
					n++
				}
			}
		}
	}

	pool := experiments.PoolFor("MT-WND")
	spec := serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, pool...)
	opts := serving.SimOptions{Queries: 1500, Seed: 3, Mix: mix,
		Dispatch: dispatch.Spec{Kind: dispatch.KindCriticality}}
	qs := serving.NewSimEvaluator(spec, opts).Stream().Queries
	opts.Churn = chaos.GenerateStorm(chaos.StormOptions{
		Seed: 5, HorizonMs: qs[len(qs)-1].ArrivalMs, Families: pool,
		RevocationMultiplier: 20000, WarningMs: 100, FailuresPerHour: 3000,
		SlowdownsPerHour: 8000, SlowdownMs: 300, RestoreAfterMs: 250,
	})
	opts.ChurnWarmupMs = 200
	if len(opts.Churn.Events) == 0 {
		t.Fatal("churn storm generated no events")
	}
	ev := serving.NewSimEvaluator(spec, opts)
	for _, cfg := range grid {
		hashResult(h, ev.Evaluate(cfg))
		n++
	}

	if got := h.Sum64(); got != goldenEvaluateFingerprint {
		t.Fatalf("Evaluate fingerprint over %d results = %#x, want %#x: the simulator's output moved", n, got, uint64(goldenEvaluateFingerprint))
	}
}

// hashResult writes the bits of every Result field.
func hashResult(h hash.Hash64, r serving.Result) {
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	s := func(v string) {
		u(uint64(len(v)))
		buf = append(buf, v...)
	}
	u(uint64(len(r.Config)))
	for _, c := range r.Config {
		u(uint64(c))
	}
	f(r.CostPerHour)
	f(r.Rsat)
	b(r.MeetsQoS)
	f(r.MeanLatencyMs)
	f(r.TailLatencyMs)
	u(uint64(r.MaxQueueLen))
	u(uint64(r.Queries))
	b(r.Aborted)
	s(r.Policy)
	u(uint64(r.Shed))
	f(r.ShedRate)
	u(uint64(r.Lost))
	u(uint64(len(r.Classes)))
	for _, c := range r.Classes {
		s(string(c.Class))
		u(uint64(c.Queries))
		f(c.Rsat)
		u(uint64(c.Shed))
	}
	h.Write(buf)
}
