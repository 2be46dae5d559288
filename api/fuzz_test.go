package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// decodeStrict decodes one JSON value the way the control-plane server
// does: unknown fields and trailing data are errors.
func decodeStrict[T any](data []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if dec.More() {
		return v, errors.New("trailing data after JSON body")
	}
	return v, nil
}

// checkRoundTrip is the trust-boundary property shared by the fuzz targets:
// decoding arbitrary bytes and validating never panics, and every value
// Validate accepts survives Marshal → strict decode → Validate unchanged.
func checkRoundTrip[T interface{ Validate() *Error }](t *testing.T, data []byte) {
	v, err := decodeStrict[T](data)
	if err != nil || v.Validate() != nil {
		return
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal accepted %#v: %v", v, err)
	}
	back, err := decodeStrict[T](out)
	if err != nil {
		t.Fatalf("re-decode %s: %v", out, err)
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
	if _, err := decodeStrict[OptimizeRequest]([]byte(removedSearchMode)); err == nil {
		f.Fatalf("strict decode accepted search_mode: %s", removedSearchMode)
	}
	f.Fuzz(checkRoundTrip[OptimizeRequest])
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
	if _, err := decodeStrict[FleetSpec]([]byte(removedFleetSearchMode)); err == nil {
		f.Fatalf("strict decode accepted search_mode: %s", removedFleetSearchMode)
	}
	f.Fuzz(checkRoundTrip[FleetSpec])
}
