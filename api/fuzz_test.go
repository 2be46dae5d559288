package api_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ribbon/api"
	"ribbon/internal/wire"
)

// decode parses one body with the strict decoder both binaries run.
func decode[T any](data []byte) (T, *api.Error) {
	var v T
	e := wire.Decode(bytes.NewReader(data), &v)
	return v, e
}

// checkRoundTrip is the trust-boundary property shared by the fuzz targets:
// decoding arbitrary bytes and validating never panics, and every value
// Validate accepts survives Marshal → strict decode → Validate unchanged.
func checkRoundTrip[T interface{ Validate() *api.Error }](t *testing.T, data []byte) {
	v, e := decode[T](data)
	if e != nil || v.Validate() != nil {
		return
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal accepted %#v: %v", v, err)
	}
	back, e := decode[T](out)
	if e != nil {
		t.Fatalf("re-decode %s: %v", out, e)
	}
	if e := back.Validate(); e != nil {
		t.Fatalf("round-tripped %s rejected: %v", out, e)
	}
	if !reflect.DeepEqual(v, back) {
		t.Fatalf("round trip changed the value:\n in %#v\nout %#v", v, back)
	}
}

// Bodies carrying the deleted search_mode field; the strict decoder must
// refuse them rather than silently drop the field.
const (
	removedSearchMode      = `{"model": "MT-WND", "budget": 25, "parallelism": 4, "search_mode": "auto"}`
	removedFleetSearchMode = `{"models": [{"model": "CANDLE"}], "budget_per_hour": 6.5, "search_mode": "batched"}`
)

func FuzzOptimizeRequest(f *testing.F) {
	for _, body := range []string{
		// The docs/api.md optimize, job and service-spec bodies.
		`{"model": "MT-WND", "families": ["g4dn", "t3"], "budget": 25, "parallelism": 4}`,
		`{"model": "MT-WND", "budget": 40}`,
		`{"model": "MT-WND", "families": ["g4dn", "t3"], "rate_scale": 4,
		  "dispatch": {"policy": "criticality", "shed_queue_length": 16},
		  "class_mix": {"critical": 0.2, "standard": 0.6, "sheddable": 0.2}}`,
		`{"model": "MT-WND", "families": []}`,
		removedSearchMode,
	} {
		f.Add([]byte(body))
	}
	if _, e := decode[api.OptimizeRequest]([]byte(removedSearchMode)); e == nil {
		f.Fatalf("strict decode accepted search_mode: %s", removedSearchMode)
	}
	f.Fuzz(checkRoundTrip[api.OptimizeRequest])
}

func FuzzFleetSpec(f *testing.F) {
	for _, body := range []string{
		// The docs/api.md fleet body.
		`{"models": [{"model": "CANDLE"}, {"model": "ResNet50"}, {"model": "MT-WND", "weight": 2}],
		  "budget_per_hour": 6.5}`,
		`{"models": [{"model": "CANDLE", "name": "a", "floor_cost_per_hour": 1, "search_budget": 8},
		  {"model": "CANDLE", "name": "b", "families": ["c5a", "m5"]}],
		  "budget_per_hour": 4, "search_budget": 20, "refine_budget": 6, "refine_models": -1, "parallelism": 2}`,
		removedFleetSearchMode,
	} {
		f.Add([]byte(body))
	}
	if _, e := decode[api.FleetSpec]([]byte(removedFleetSearchMode)); e == nil {
		f.Fatalf("strict decode accepted search_mode: %s", removedFleetSearchMode)
	}
	f.Fuzz(checkRoundTrip[api.FleetSpec])
}

func FuzzControllerSpec(f *testing.F) {
	for _, body := range []string{
		// The docs/api.md controller body.
		`{"model": "MT-WND", "scenario": "diurnal", "total_queries": 40000,
		  "window_ms": 8000, "dwell_ms": 4000, "rel_threshold": 0.25}`,
		`{"model": "CANDLE", "phases": [{"queries": 4000, "rate_scale": 1}, {"queries": 6000, "rate_scale": 2.5}],
		  "use_spot": true, "chaos": {"seed": 7, "horizon_ms": 600000, "revocation_multiplier": 2000,
		  "warning_ms": 500, "failures_per_hour": 600, "slowdowns_per_hour": 30, "slowdown_factor": 3,
		  "slowdown_ms": 2000, "price_step_ms": 2000, "price_volatility": 0.25, "restore_after_ms": 5000}}`,
		`{"model":"MT-WND","phases":[]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(checkRoundTrip[api.ControllerSpec])
}
