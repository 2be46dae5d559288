package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ribbon/api"
	"ribbon/internal/obs"
)

func TestSLOEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, Logger: obs.NewPrintfLogger(t.Logf, obs.LevelInfo), SLOSampleMs: 1})
	t.Cleanup(s.Close)

	// Spend a little budget: a 404 is a client error (no budget), a /v1/slo
	// hit is a success.
	doReq(t, s, http.MethodGet, "/healthz", "")
	doReq(t, s, http.MethodGet, "/v1/jobs/nope", "")

	// Let the wall-clock ticker take at least one sample over the counters.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rr := doReq(t, s, http.MethodGet, "/v1/slo", "")
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /v1/slo = %d: %s", rr.Code, rr.Body.String())
		}
		var st api.SLOStatus
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(st.Objectives) != 1 {
			t.Fatalf("objectives = %d, want 1 (availability/http)", len(st.Objectives))
		}
		o := st.Objectives[0]
		if o.Name != "availability/http" || o.Kind != "availability" {
			t.Fatalf("objective = %s/%s", o.Name, o.Kind)
		}
		if o.Target != defaultSLOTarget {
			t.Fatalf("target = %g, want %g", o.Target, defaultSLOTarget)
		}
		if o.Total > 0 {
			if o.Good == 0 {
				t.Fatal("sampled totals without any good responses")
			}
			if o.ErrorRate != 0 {
				t.Fatalf("healthy server burning budget: error rate %g", o.ErrorRate)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("SLO ticker never sampled the HTTP counters")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSLODisabled(t *testing.T) {
	s := New(Config{Workers: 1, Logger: obs.NewPrintfLogger(t.Logf, obs.LevelInfo), SLOSampleMs: -1})
	t.Cleanup(s.Close)
	rr := doReq(t, s, http.MethodGet, "/v1/slo", "")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/slo with the engine disabled = %d, want 404", rr.Code)
	}
	if e := decodeErr(t, rr); e.Code != api.ErrNotFound {
		t.Fatalf("error code %s", e.Code)
	}
}

func TestSLOAvailabilityCountsServerErrors(t *testing.T) {
	s := New(Config{Workers: 1, Logger: obs.NewPrintfLogger(t.Logf, obs.LevelInfo), SLOSampleMs: -1})
	t.Cleanup(s.Close)
	doReq(t, s, http.MethodGet, "/healthz", "")
	doReq(t, s, http.MethodGet, "/v1/jobs/nope", "") // 404: client error, no budget
	if all, failed := s.sm.httpAll.Load(), s.sm.httpFailed.Load(); all != 2 || failed != 0 {
		t.Fatalf("all=%d failed=%d after 200+404, want 2/0", all, failed)
	}
	// Forge a 500 through the instrument wrapper directly: no stock
	// handler fails on demand.
	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	if failed := s.sm.httpFailed.Load(); failed != 1 {
		t.Fatalf("failed=%d after a 500, want 1", failed)
	}
}
