package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ribbon/api"
	"ribbon/internal/obs"
	"ribbon/internal/server"
)

func TestSLOAgainstControlPlane(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, Logger: obs.NewPrintfLogger(t.Logf, obs.LevelInfo), SLOSampleMs: 5})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	c := New(hs.URL)

	st, err := c.SLO(context.Background())
	if err != nil {
		t.Fatalf("SLO: %v", err)
	}
	if len(st.Objectives) != 1 || st.Objectives[0].Name != "availability/http" {
		t.Fatalf("objectives: %+v", st.Objectives)
	}
	// The control plane serves no gateway SLO: Alerts must fall back to
	// /v1/slo instead of failing on the 404.
	if _, err := c.Alerts(context.Background()); err != nil {
		t.Fatalf("Alerts fallback: %v", err)
	}
}

// fakeSLOServer serves whatever status the pointer currently holds on the
// gateway route, guarded by mu so tests can swap it mid-flight.
func fakeSLOServer(t *testing.T, status *api.SLOStatus, mu *sync.Mutex) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/gateway/slo", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(status)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestAlertsLogsEachTransitionOnce(t *testing.T) {
	firing := api.SLOStatus{
		Firing: 1,
		Objectives: []api.SLOObjective{{
			Name: "qos_attainment/critical", Tier: "critical", Kind: "qos_attainment",
			Target: 0.99,
			Rules: []api.SLORule{
				{Severity: "page", Threshold: 5, Firing: true, BurnLong: 80, BurnShort: 90, SinceMs: 1000},
				{Severity: "ticket", Threshold: 2, Firing: false},
			},
		}},
	}
	quiet := api.SLOStatus{
		Objectives: []api.SLOObjective{{
			Name: "qos_attainment/critical", Tier: "critical", Kind: "qos_attainment",
			Target: 0.99,
			Rules:  []api.SLORule{{Severity: "page", Threshold: 5}, {Severity: "ticket", Threshold: 2}},
		}},
	}

	var statusMu sync.Mutex
	status := firing
	srv := fakeSLOServer(t, &status, &statusMu)

	var logMu sync.Mutex
	var lines []string
	logger := obs.NewPrintfLogger(func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}, obs.LevelInfo)

	c := New(srv.URL, WithLogger(logger))
	ctx := context.Background()

	alerts, err := c.Alerts(ctx)
	if err != nil {
		t.Fatalf("Alerts: %v", err)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v, want the one firing page rule", alerts)
	}
	a := alerts[0]
	if a.Objective != "qos_attainment/critical" || a.Severity != "page" || a.BurnLong != 80 {
		t.Fatalf("alert = %+v", a)
	}

	// Same status again: the alert is already known, no second log line.
	if _, err := c.Alerts(ctx); err != nil {
		t.Fatal(err)
	}
	if n := countMatching(&logMu, &lines, "slo alert firing"); n != 1 {
		t.Fatalf("firing logged %d times across two identical polls, want 1\n%v", n, lines)
	}

	// Clear the rule: exactly one resolution line at info.
	statusMu.Lock()
	status = quiet
	statusMu.Unlock()
	alerts, err = c.Alerts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("alerts after resolve = %+v", alerts)
	}
	if n := countMatching(&logMu, &lines, "slo alert resolved"); n != 1 {
		t.Fatalf("resolution logged %d times, want 1\n%v", n, lines)
	}
}

func countMatching(mu *sync.Mutex, lines *[]string, substr string) int {
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, l := range *lines {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}
