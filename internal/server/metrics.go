package server

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ribbon"
	"ribbon/api"
	"ribbon/internal/dispatch"
	"ribbon/internal/obs"
)

// tierNames maps workload criticality ranks onto metric label values.
var tierNames = [dispatch.NumRanks]string{"sheddable", "standard", "critical"}

// serverMetrics is the control plane's registry-backed instrument set. A nil
// *serverMetrics is inert, so stores built without one (tests) need no
// conditionals.
type serverMetrics struct {
	reg *obs.Registry

	httpRequests *obs.CounterVec // {method, code}
	httpSeconds  *obs.Histogram

	// httpAll and httpFailed back the availability SLO indicator: every
	// response, and the 5xx subset that spends error budget. Plain atomics
	// rather than registry counters — the engine samples raw totals and the
	// per-code breakdown is already exported by httpRequests.
	httpAll    atomic.Uint64
	httpFailed atomic.Uint64

	evals         *obs.Counter   // non-estimated search evaluations
	searchSeconds *obs.Histogram // optimize search wall-clock durations

	runsCreated  *obs.CounterVec // {kind}
	runsFinished *obs.CounterVec // {kind, status}
	runsRunning  *obs.GaugeVec   // {kind}

	// pick pre-resolves one child per built-in policy, the only policies
	// there are, so the per-query observer path does not take the family
	// lock.
	pick map[string]*obs.Histogram
	shed [dispatch.NumRanks]*obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg}
	m.httpRequests = reg.CounterVec("ribbon_server_http_requests_total",
		"HTTP responses by method and status code.", "method", "code")
	m.httpSeconds = reg.Histogram("ribbon_server_http_request_seconds",
		"HTTP request handling time in seconds.", obs.ExpBuckets(1e-4, 4, 12))
	m.evals = reg.Counter("ribbon_server_search_evaluations_total",
		"Real (non-estimated) configuration evaluations across all searches.")
	m.searchSeconds = reg.Histogram("ribbon_server_search_seconds",
		"Optimize search wall-clock duration in seconds.", obs.ExpBuckets(1e-3, 4, 10))
	m.runsCreated = reg.CounterVec("ribbon_server_runs_total",
		"Runs accepted by kind (job, controller, fleet).", "kind")
	m.runsFinished = reg.CounterVec("ribbon_server_runs_finished_total",
		"Runs finished by kind and terminal status.", "kind", "status")
	m.runsRunning = reg.GaugeVec("ribbon_server_runs_running",
		"Runs currently executing on a worker, by kind.", "kind")
	pick := reg.HistogramVec("ribbon_server_pick_seconds",
		"Dispatch policy decision time in seconds, by policy.",
		obs.ExpBuckets(1e-8, 4, 10), "policy")
	m.pick = make(map[string]*obs.Histogram)
	for _, k := range dispatch.Kinds() {
		m.pick[string(k)] = pick.With(string(k))
	}
	shed := reg.CounterVec("ribbon_server_dispatch_shed_total",
		"Queries shed by dispatch policies during evaluation, by tier.", "tier")
	for r, tier := range tierNames {
		m.shed[r] = shed.With(tier)
	}
	return m
}

// ObservePick implements dispatch.Observer against the registry.
func (m *serverMetrics) ObservePick(policy string, seconds float64, rank int, shed bool) {
	m.pick[policy].Observe(seconds)
	if shed && rank >= 0 && rank < len(m.shed) {
		m.shed[rank].Inc()
	}
}

// observer returns m as a dispatch observer, nil when metrics are disabled —
// never a non-nil interface wrapping a nil pointer.
func (m *serverMetrics) observer() ribbon.DispatchObserver {
	if m == nil {
		return nil
	}
	return m
}

// countStep is the Progress hook counting real evaluations.
func (m *serverMetrics) countStep(step ribbon.Step) {
	if m == nil || step.Estimated {
		return
	}
	m.evals.Inc()
}

// observeSearch records one completed optimize search's duration.
func (m *serverMetrics) observeSearch(d time.Duration) {
	if m == nil {
		return
	}
	m.searchSeconds.Observe(d.Seconds())
}

// storeHooks builds the lifecycle hooks one store publishes through, with
// the per-status children pre-resolved.
func (m *serverMetrics) storeHooks(kind string) *storeHooks {
	if m == nil {
		return nil
	}
	return &storeHooks{
		created: m.runsCreated.With(kind),
		running: m.runsRunning.With(kind),
		finished: map[api.JobStatus]*obs.Counter{
			api.JobDone:      m.runsFinished.With(kind, string(api.JobDone)),
			api.JobFailed:    m.runsFinished.With(kind, string(api.JobFailed)),
			api.JobCancelled: m.runsFinished.With(kind, string(api.JobCancelled)),
		},
	}
}

// storeHooks publishes store lifecycle transitions. Nil-safe.
type storeHooks struct {
	created  *obs.Counter
	running  *obs.Gauge
	finished map[api.JobStatus]*obs.Counter
}

func (h *storeHooks) add() {
	if h != nil {
		h.created.Inc()
	}
}

func (h *storeHooks) start() {
	if h != nil {
		h.running.Add(1)
	}
}

// finish records a terminal transition; wasRunning releases the running slot
// (false for items cancelled while still queued).
func (h *storeHooks) finish(status api.JobStatus, wasRunning bool) {
	if h == nil {
		return
	}
	if wasRunning {
		h.running.Add(-1)
	}
	if c := h.finished[status]; c != nil {
		c.Inc()
	}
}

// statusWriter captures the response status code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux so every response lands in the HTTP counters.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.sm.httpRequests.With(r.Method, strconv.Itoa(sw.status)).Inc()
		s.sm.httpSeconds.Observe(time.Since(t0).Seconds())
		s.sm.httpAll.Add(1)
		if sw.status >= 500 {
			s.sm.httpFailed.Add(1)
		}
	})
}
