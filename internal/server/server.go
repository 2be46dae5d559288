// Package server implements the Ribbon control-plane HTTP service behind
// cmd/ribbon-server: a testable Server type that mounts the typed v1 API
// (package api) — catalog inspection, synchronous evaluate/optimize, an
// asynchronous job-based optimize flow, and continuous pool-controller runs
// (/v1/controllers, docs/controller.md), each backed by a bounded worker
// pool.
//
// The legacy /api/... routes are kept as deprecated aliases of their /v1/...
// successors and answer with a Deprecation header.
package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"ribbon"
	"ribbon/api"
	"ribbon/internal/dispatch"
	"ribbon/internal/obs"
	"ribbon/internal/slo"
	"ribbon/internal/wire"
)

// Config tunes a Server. The zero value is ready for production use.
type Config struct {
	// Workers bounds the number of optimize jobs searching concurrently;
	// 2 when zero.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs; when
	// the queue is full POST /v1/jobs answers 503/overloaded. 16 when
	// zero.
	QueueDepth int
	// DefaultBudget is the optimize evaluation budget when the request
	// omits it; 40 when zero.
	DefaultBudget int
	// RetainJobs bounds how many terminal jobs stay queryable; once
	// exceeded the oldest finished jobs are evicted (active jobs never
	// are). 256 when zero. Controller runs are retained under the same
	// bound.
	RetainJobs int
	// ControllerWorkers bounds the number of controller replays running
	// concurrently; Workers when zero.
	ControllerWorkers int
	// FleetWorkers bounds the number of fleet optimizations running
	// concurrently; Workers when zero. Each fleet additionally fans its
	// per-model searches out onto its own goroutines.
	FleetWorkers int
	// DefaultAdaptBudget is the controller's per-reconfiguration search
	// budget when the request omits it; 16 when zero.
	DefaultAdaptBudget int
	// MaxBodyBytes caps request bodies; 1 MiB when zero.
	MaxBodyBytes int64
	// Logger receives structured diagnostics and mirrors every
	// control-plane audit event (controller and fleet decisions). When
	// nil, a stderr text logger is used.
	Logger *obs.Logger
	// Registry collects the server's Prometheus metrics and backs
	// GET /metrics; a private registry is created when nil. Share one
	// registry to co-expose several subsystems on one endpoint.
	Registry *obs.Registry
	// SLOSampleMs is the wall-clock interval, in milliseconds, at which
	// the API-availability SLO engine samples the HTTP counters (served at
	// GET /v1/slo). 1000 when zero; negative disables the engine.
	SLOSampleMs float64
	// SLOTarget is the availability objective in (0,1); 0.999 when unset
	// or out of range.
	SLOTarget float64
}

// Server is the Ribbon control plane. Create with New, mount Handler into
// an http.Server, and Close on shutdown to stop the job and controller
// workers.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	sm     *serverMetrics
	jobs   *jobStore
	ctrls  *controllerStore
	fleets *fleetStore

	// API-availability SLO engine (see slo.go); nil when disabled.
	slo      *slo.Engine
	sloTrail *obs.Trail
	sloStop  chan struct{}
	sloDone  chan struct{}
}

// New builds a Server and starts its job worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.DefaultBudget <= 0 {
		cfg.DefaultBudget = 40
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.ControllerWorkers <= 0 {
		cfg.ControllerWorkers = cfg.Workers
	}
	if cfg.FleetWorkers <= 0 {
		cfg.FleetWorkers = cfg.Workers
	}
	if cfg.DefaultAdaptBudget <= 0 {
		cfg.DefaultAdaptBudget = 16
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewStderrLogger()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.sm = newServerMetrics(cfg.Registry)
	s.jobs = newJobStore(cfg.Workers, cfg.QueueDepth, cfg.RetainJobs, s.sm)
	s.ctrls = newControllerStore(cfg.ControllerWorkers, cfg.QueueDepth, cfg.RetainJobs)
	s.fleets = newFleetStore(cfg.FleetWorkers, cfg.QueueDepth, cfg.RetainJobs)
	s.jobs.hooks = s.sm.storeHooks("job")
	s.ctrls.hooks = s.sm.storeHooks("controller")
	s.ctrls.sm, s.ctrls.logger = s.sm, cfg.Logger
	s.fleets.hooks = s.sm.storeHooks("fleet")
	s.fleets.sm, s.fleets.logger = s.sm, cfg.Logger

	s.initSLO()

	s.mux.Handle("GET /metrics", cfg.Registry.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/slo", s.handleSLO)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/instances", s.handleInstances)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("POST /v1/controllers", s.handleCreateController)
	s.mux.HandleFunc("GET /v1/controllers", s.handleListControllers)
	s.mux.HandleFunc("GET /v1/controllers/{id}", s.handleGetController)
	s.mux.HandleFunc("DELETE /v1/controllers/{id}", s.handleCancelController)
	s.mux.HandleFunc("POST /v1/fleets", s.handleCreateFleet)
	s.mux.HandleFunc("GET /v1/fleets", s.handleListFleets)
	s.mux.HandleFunc("GET /v1/fleets/{id}", s.handleGetFleet)
	s.mux.HandleFunc("DELETE /v1/fleets/{id}", s.handleCancelFleet)

	// Deprecated v0 aliases.
	s.mux.HandleFunc("GET /api/models", deprecated("/v1/models", s.handleModels))
	s.mux.HandleFunc("GET /api/instances", deprecated("/v1/instances", s.handleInstances))
	s.mux.HandleFunc("POST /api/evaluate", deprecated("/v1/evaluate", s.handleEvaluate))
	s.mux.HandleFunc("POST /api/optimize", deprecated("/v1/optimize", s.handleOptimize))
	return s
}

// Handler returns the root handler serving /healthz, /metrics, /v1/..., and
// the deprecated /api/... aliases, instrumented with the HTTP counters.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Close cancels every queued and running job and controller run and stops
// the worker pools. The Server must not serve requests afterwards.
func (s *Server) Close() {
	s.closeSLO()
	s.jobs.close()
	s.ctrls.close()
	s.fleets.close()
}

// legacySunset is the announced removal date of the deprecated /api/...
// aliases, advertised via the Sunset header (RFC 8594) so clients can plan
// their migration against a date rather than an open-ended deprecation.
const legacySunset = "Sun, 01 Nov 2026 00:00:00 GMT"

// deprecated wraps an alias route so responses advertise the successor and
// the removal date.
func deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", legacySunset)
		w.Header().Set("Link", "<"+successor+`>; rel="successor-version"`)
		h(w, r)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.logEncode(wire.WriteJSON(w, status, v))
}

func (s *Server) writeErr(w http.ResponseWriter, e *api.Error) {
	s.logEncode(wire.WriteError(w, e))
}

// logEncode reports a response that could not be written, typically to a
// client that has gone away.
func (s *Server) logEncode(err error) {
	if err != nil {
		s.cfg.Logger.Warn("server: encode response", obs.F("err", err))
	}
}

// decode parses a request body strictly, bounded by MaxBodyBytes.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) *api.Error {
	return wire.Decode(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), v)
}

// serviceConfig maps the wire-level service spec onto the library's
// configuration; shared by the optimizer and controller constructors.
func serviceConfig(spec api.ServiceSpec, opts ribbon.SearchOptions) ribbon.ServiceConfig {
	cfg := ribbon.ServiceConfig{
		Model:                spec.Model,
		Families:             spec.Families,
		QoSPercentile:        spec.QoSPercentile,
		QueriesPerEvaluation: spec.Queries,
		Seed:                 spec.Seed,
		RateScale:            spec.RateScale,
		SearchOptions:        opts,
	}
	if spec.Dispatch != nil {
		cfg.Dispatch = ribbon.DispatchSpec{
			Kind:            dispatch.Kind(spec.Dispatch.Policy),
			ShedQueueLength: spec.Dispatch.ShedQueueLength,
		}
	}
	if spec.ClassMix != nil {
		cfg.ClassMix = ribbon.ClassMix{
			Critical:  spec.ClassMix.Critical,
			Standard:  spec.ClassMix.Standard,
			Sheddable: spec.ClassMix.Sheddable,
		}
	}
	return cfg
}

// apiError maps a library constructor error onto the wire error codes.
func apiError(err error) *api.Error {
	code := api.ErrInvalidRequest
	if errors.Is(err, ribbon.ErrUnknownModel) || errors.Is(err, ribbon.ErrUnknownInstance) {
		code = api.ErrUnknownModel
	}
	return &api.Error{Code: code, Message: err.Error()}
}

// newOptimizer resolves a service spec against the catalogs, splicing the
// server's evaluation counter and dispatch telemetry into the configuration.
func newOptimizer(spec api.ServiceSpec, opts ribbon.SearchOptions, sm *serverMetrics) (*ribbon.Optimizer, *api.Error) {
	user := opts.Progress
	opts.Progress = func(step ribbon.Step) {
		sm.countStep(step)
		if user != nil {
			user(step)
		}
	}
	cfg := serviceConfig(spec, opts)
	cfg.DispatchObserver = sm.observer()
	opt, err := ribbon.NewOptimizer(cfg)
	if err != nil {
		return nil, apiError(err)
	}
	return opt, nil
}

// jsonLatency makes a latency statistic JSON-encodable: an infinite value —
// an unservable pool, or a tail percentile landing on refused/shed queries —
// becomes the -1 sentinel the API documents, since JSON has no Inf.
func jsonLatency(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return -1
	}
	return x
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	models := ribbon.Models()
	out := make([]api.ModelInfo, 0, len(models))
	for _, m := range models {
		out = append(out, api.ModelInfo{
			Name:        m.Name,
			Category:    m.Category.String(),
			QoSTargetMs: m.QoSLatencyMs,
			Description: m.Description,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	instances := ribbon.Instances()
	out := make([]api.InstanceInfo, 0, len(instances))
	for _, i := range instances {
		out = append(out, api.InstanceInfo{
			Name:         i.Name(),
			Family:       i.Family,
			Category:     i.Class.String(),
			VCPU:         i.VCPU,
			MemoryGiB:    i.MemoryGiB,
			PricePerHour: i.PricePerHour,
			Description:  i.Description,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req api.EvaluateRequest
	if e := s.decode(w, r, &req); e != nil {
		s.writeErr(w, e)
		return
	}
	if e := req.Validate(); e != nil {
		s.writeErr(w, e)
		return
	}
	opt, e := newOptimizer(req.ServiceSpec, ribbon.SearchOptions{}, s.sm)
	if e != nil {
		s.writeErr(w, e)
		return
	}
	if len(req.Config) != opt.Spec().Dim() {
		s.writeErr(w, &api.Error{Code: api.ErrInvalidConfig,
			Message: fmt.Sprintf("config has %d entries for a %d-type pool", len(req.Config), opt.Spec().Dim())})
		return
	}
	res, err := opt.EvaluateContext(r.Context(), ribbon.Config(req.Config))
	if err != nil {
		// The request context died — client disconnect (the write below
		// is then a no-op) or server shutdown, where the still-connected
		// client must hear a retryable error rather than an empty 200.
		s.writeErr(w, &api.Error{Code: api.ErrOverloaded,
			Message: "evaluation aborted: " + err.Error()})
		return
	}
	out := api.EvaluateResponse{
		Config:        res.Config,
		CostPerHour:   res.CostPerHour,
		QoSSatRate:    res.Rsat,
		MeetsQoS:      res.MeetsQoS,
		MeanLatencyMs: jsonLatency(res.MeanLatencyMs),
		TailLatencyMs: jsonLatency(res.TailLatencyMs),
		Policy:        res.Policy,
		ShedRate:      res.ShedRate,
	}
	for _, cs := range res.Classes {
		out.Classes = append(out.Classes, api.ClassStat{
			Class:      string(cs.Class),
			Queries:    cs.Queries,
			QoSSatRate: cs.Rsat,
			Shed:       cs.Shed,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleOptimize is the synchronous optimize flow. The search runs on the
// request context, so a disconnecting caller aborts it; orchestrators that
// need to observe or cancel a long search should use /v1/jobs instead.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req api.OptimizeRequest
	if e := s.decode(w, r, &req); e != nil {
		s.writeErr(w, e)
		return
	}
	if e := req.Validate(); e != nil {
		s.writeErr(w, e)
		return
	}
	opt, e := newOptimizer(req.ServiceSpec, ribbon.SearchOptions{
		Parallelism: req.Parallelism,
	}, s.sm)
	if e != nil {
		s.writeErr(w, e)
		return
	}
	budget := req.Budget
	if budget == 0 {
		budget = s.cfg.DefaultBudget
	}
	t0 := time.Now()
	res, err := opt.RunContext(r.Context(), budget)
	s.sm.observeSearch(time.Since(t0))
	if err != nil {
		if r.Context().Err() != nil {
			// Client disconnect (write is a no-op) or server shutdown,
			// where the client must hear a retryable error, not an
			// empty 200.
			s.writeErr(w, &api.Error{Code: api.ErrOverloaded,
				Message: "search aborted: " + err.Error()})
			return
		}
		s.writeErr(w, &api.Error{Code: api.ErrInternal, Message: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, optimizeResponse(opt, res, true))
}

// optimizeResponse assembles the shared optimize summary. withBaseline
// additionally runs the homogeneous-pool comparison, which costs extra
// evaluations and is skipped for cancelled jobs.
func optimizeResponse(opt *ribbon.Optimizer, res ribbon.SearchResult, withBaseline bool) api.OptimizeResponse {
	samples, violations, cost := opt.ExplorationStats()
	out := api.OptimizeResponse{
		Found:            res.Found,
		Samples:          res.Samples,
		ExploredConfigs:  samples,
		ViolatingSamples: violations,
		ExplorationCost:  cost,
	}
	if res.Found {
		out.BestConfig = res.BestConfig
		out.BestCostPerHour = res.BestResult.CostPerHour
		out.BestQoSSatRate = res.BestResult.Rsat
		if withBaseline {
			if homog, ok := opt.HomogeneousBaseline(); ok {
				out.HomogeneousCostPerHour = homog.CostPerHour
				out.Saving = 1 - res.BestResult.CostPerHour/homog.CostPerHour
			}
		}
	}
	return out
}

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req api.OptimizeRequest
	if e := s.decode(w, r, &req); e != nil {
		s.writeErr(w, e)
		return
	}
	if e := req.Validate(); e != nil {
		s.writeErr(w, e)
		return
	}
	if req.Budget == 0 {
		req.Budget = s.cfg.DefaultBudget
	}
	j, e := s.jobs.create(req)
	if e != nil {
		s.writeErr(w, e)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	s.writeJSON(w, http.StatusAccepted, j)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, api.JobList{Jobs: s.jobs.list()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, &api.Error{Code: api.ErrNotFound,
			Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	s.writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, e := s.jobs.cancel(r.PathValue("id"))
	if e != nil {
		s.writeErr(w, e)
		return
	}
	s.writeJSON(w, http.StatusOK, j)
}
