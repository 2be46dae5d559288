package chaos

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func stormOpts() StormOptions {
	return StormOptions{
		Seed:                 42,
		HorizonMs:            600000,
		Families:             []string{"g4dn", "c5", "r5n"},
		RevocationMultiplier: 30,
		FailuresPerHour:      12,
		SlowdownsPerHour:     18,
		PriceStepMs:          30000,
		RestoreAfterMs:       60000,
	}
}

func TestGenerateStormDeterministic(t *testing.T) {
	// The acceptance bar: same options, same storm, byte for byte. Run the
	// generator concurrently (the -race CI job leans on this) and compare
	// the full %#v rendering of every run.
	const runs = 4
	got := make([]string, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = fmt.Sprintf("%#v", *GenerateStorm(stormOpts()))
		}(i)
	}
	wg.Wait()
	for i := 1; i < runs; i++ {
		if got[i] != got[0] {
			t.Fatalf("run %d diverged from run 0:\n%s\nvs\n%s", i, got[i], got[0])
		}
	}
	if len(GenerateStorm(stormOpts()).Events) == 0 {
		t.Fatalf("storm options produced no events")
	}
}

func TestGenerateStormSeedSensitivity(t *testing.T) {
	a := GenerateStorm(stormOpts())
	o := stormOpts()
	o.Seed = 43
	b := GenerateStorm(o)
	if fmt.Sprintf("%#v", *a) == fmt.Sprintf("%#v", *b) {
		t.Fatalf("different seeds produced identical storms")
	}
}

func TestGenerateStormValidSorted(t *testing.T) {
	s := GenerateStorm(stormOpts())
	if err := s.Validate(); err != nil {
		t.Fatalf("generated storm invalid: %v", err)
	}
	kinds := map[Kind]int{}
	for _, e := range s.Events {
		kinds[e.Kind]++
	}
	for _, k := range []Kind{KindRevocation, KindFailure, KindSlowdown, KindPrice, KindRestore} {
		if kinds[k] == 0 {
			t.Errorf("storm generated no %s events", k)
		}
	}
	// Every revocation carries the two-minute default warning.
	for _, e := range s.Events {
		if e.Kind == KindRevocation && e.WarningMs != DefaultWarningMs {
			t.Fatalf("revocation warning = %g, want %d", e.WarningMs, DefaultWarningMs)
		}
	}
}

func TestGenerateStormUnknownFamily(t *testing.T) {
	o := stormOpts()
	o.Families = []string{"p4d"}
	s := GenerateStorm(o)
	if len(s.Events) != 0 {
		t.Fatalf("unknown family generated %d events", len(s.Events))
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("empty storm invalid: %v", err)
	}
}

func TestValidateRejectsInvalid(t *testing.T) {
	for _, s := range []Schedule{
		{HorizonMs: -5},
		{Events: []CapacityEvent{{Kind: KindRevocation, Family: "g4dn"}}},
		{Events: []CapacityEvent{{Kind: "volcano", Family: "g4dn", Count: 1}}},
		{Events: []CapacityEvent{
			{AtMs: 10, Kind: KindFailure, Family: "g4dn", Count: 1},
			{AtMs: 5, Kind: KindFailure, Family: "g4dn", Count: 1},
		}},
		{Events: []CapacityEvent{{Kind: KindPrice, Family: "g4dn"}}},
		{Events: []CapacityEvent{{Kind: KindSlowdown, Family: "g4dn", Count: 1, Factor: 0.5, DurationMs: 100}}},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("accepted invalid schedule %+v", s)
		}
	}
}

func TestEffectiveMs(t *testing.T) {
	rev := CapacityEvent{AtMs: 1000, Kind: KindRevocation, WarningMs: 120000}
	if rev.EffectiveMs() != 121000 {
		t.Fatalf("revocation effective = %g", rev.EffectiveMs())
	}
	fail := CapacityEvent{AtMs: 1000, Kind: KindFailure}
	if fail.EffectiveMs() != 1000 {
		t.Fatalf("failure effective = %g", fail.EffectiveMs())
	}
}

func TestSortCanonical(t *testing.T) {
	s := &Schedule{Events: []CapacityEvent{
		{AtMs: 200, Kind: KindPrice, Family: "c5", Factor: 1},
		{AtMs: 100, Kind: KindRevocation, Family: "g4dn", Count: 2},
		{AtMs: 100, Kind: KindFailure, Family: "g4dn", Count: 1},
		{AtMs: 100, Kind: KindFailure, Family: "c5", Count: 1},
	}}
	s.Sort()
	want := []struct {
		at  float64
		k   Kind
		fam string
	}{
		{100, KindFailure, "c5"},
		{100, KindFailure, "g4dn"},
		{100, KindRevocation, "g4dn"},
		{200, KindPrice, "c5"},
	}
	for i, w := range want {
		e := s.Events[i]
		if e.AtMs != w.at || e.Kind != w.k || e.Family != w.fam {
			t.Fatalf("event %d = %+v, want %+v", i, e, w)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	s := GenerateStorm(stormOpts())
	c := s.Clone()
	c.Events[0].AtMs = -999
	if s.Events[0].AtMs == -999 {
		t.Fatalf("Clone shares event storage")
	}
	var nilS *Schedule
	if nilS.Clone() != nil {
		t.Fatalf("nil Clone must be nil")
	}
	if !nilS.Empty() || !new(Schedule).Empty() || s.Empty() {
		t.Fatalf("Empty misreports")
	}
}

func TestPoissonTimesRateScaling(t *testing.T) {
	// Sanity: 30x the rate produces materially more events over the same
	// horizon, and all times stay inside it.
	low := poissonTimes(7, "revoke", "g4dn", 0.18/msPerHour, 3600000)
	high := poissonTimes(7, "revoke-30x", "g4dn", 30*0.18/msPerHour, 3600000)
	if len(high) <= len(low) {
		t.Fatalf("30x rate gave %d events vs %d at 1x", len(high), len(low))
	}
	for _, at := range high {
		if at < 0 || at >= 3600000 || math.IsNaN(at) {
			t.Fatalf("event time %g outside horizon", at)
		}
	}
}
