package gateway

import (
	"fmt"
	"net/http"

	"ribbon/api"
	"ribbon/internal/dispatch"
	"ribbon/internal/obs"
	"ribbon/internal/wire"
	"ribbon/internal/workload"
)

// Handler returns the gateway's HTTP API:
//
//	POST /v1/infer            — admit one inference request, wait for it
//	GET  /v1/gateway/metrics  — point-in-time data-plane snapshot
//	GET  /v1/gateway/traces   — sampled request traces, newest first
//	GET  /v1/gateway/slo      — SLO objectives, burn rates, alert state
//	GET  /metrics             — Prometheus text exposition
//	GET  /healthz             — liveness
//
// Bodies, errors and snapshots go through internal/wire, as on the control
// plane: requests decode strictly, and shed and rejected requests answer
// 503 overloaded with a Retry-After hint, so the shared client's backoff
// logic applies unchanged. Encoder errors are dropped: the status line is
// already sent, so the client sees a cut-off body either way.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", g.handleInfer)
	mux.HandleFunc("GET /v1/gateway/metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/gateway/traces", g.handleTraces)
	mux.HandleFunc("GET /v1/gateway/slo", g.handleSLO)
	mux.Handle("GET /metrics", g.m.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (g *Gateway) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req api.InferRequest
	if e := wire.Decode(http.MaxBytesReader(w, r.Body, 1<<20), &req); e != nil {
		_ = wire.WriteError(w, e)
		return
	}
	class := workload.Criticality(req.Class).Normalize()
	if !class.Valid() {
		_ = wire.WriteError(w, &api.Error{Code: api.ErrInvalidRequest,
			Message: fmt.Sprintf("unknown class %q", req.Class)})
		return
	}
	if req.Batch < 0 || req.ArrivalMs < 0 {
		_ = wire.WriteError(w, &api.Error{Code: api.ErrInvalidRequest,
			Message: "batch and arrival_ms must be non-negative"})
		return
	}
	arrival := req.ArrivalMs
	if arrival == 0 {
		arrival = g.nowMs()
	}
	var payload []byte
	if req.Payload != "" {
		payload = []byte(req.Payload)
	}
	reqID := r.Header.Get("X-Request-Id")
	resp, out, err := g.IngestWithID(r.Context(), arrival, req.Batch, class, payload, reqID)
	switch {
	case out != OutcomeQueued:
		if reqID != "" {
			w.Header().Set("X-Request-Id", reqID)
		}
		_ = wire.WriteError(w, &api.Error{Code: api.ErrOverloaded,
			Message: "request " + out.String() + ": pool saturated"})
	case err != nil:
		_ = wire.WriteError(w, &api.Error{Code: api.ErrInternal, Message: err.Error()})
	default:
		traceID := ""
		if resp.TraceSeq != 0 || resp.TraceID != "" {
			traceID = obs.TraceID(resp.TraceSeq, resp.TraceID)
			w.Header().Set("X-Request-Id", traceID)
		}
		_ = wire.WriteJSON(w, http.StatusOK, api.InferResponse{
			Outcome:   out.String(),
			LatencyMs: resp.LatencyMs,
			ServiceMs: resp.ServiceMs,
			Instance:  resp.Instance,
			Body:      string(resp.Body),
			TraceID:   traceID,
		})
	}
}

func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := g.Traces()
	out := make([]api.GatewayTrace, 0, len(traces))
	for _, t := range traces {
		dto := api.GatewayTrace{
			ID:        obs.TraceID(t.Seq, t.ID),
			Seq:       t.Seq,
			Class:     t.Class,
			Outcome:   t.Outcome,
			Instance:  t.Instance,
			ArrivalMs: t.ArrivalMs,
			LatencyMs: t.LatencyMs,
			Spans:     make([]api.TraceSpan, 0, len(t.Spans)),
		}
		for _, sp := range t.Spans {
			dto.Spans = append(dto.Spans, api.TraceSpan{Name: sp.Name, StartMs: sp.StartMs, EndMs: sp.EndMs})
		}
		out = append(out, dto)
	}
	_ = wire.WriteJSON(w, http.StatusOK, api.GatewayTraces{Traces: out})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	_ = wire.WriteJSON(w, http.StatusOK, g.MetricsDTO())
}

func (g *Gateway) handleSLO(w http.ResponseWriter, r *http.Request) {
	s, ok := g.SLOStatus()
	if !ok {
		_ = wire.WriteError(w, &api.Error{Code: api.ErrNotFound, Message: "slo engine not configured"})
		return
	}
	_ = wire.WriteJSON(w, http.StatusOK, wire.SLOStatus(s))
}

// MetricsDTO assembles the wire-level metrics snapshot served by
// GET /v1/gateway/metrics.
func (g *Gateway) MetricsDTO() api.GatewayMetrics {
	s := g.Metrics()
	out := api.GatewayMetrics{
		Model:       g.spec.Model.Name,
		Policy:      g.dispatch.Name(),
		Config:      g.Config(),
		Accepted:    s.Accepted,
		Completed:   s.Completed,
		Shed:        s.Shed,
		Rejected:    s.Rejected,
		Failed:      s.Failed,
		FeedDropped: s.FeedDropped,
		QueueDepth:  s.QueueDepth,
		Inflight:    s.Inflight,
	}
	for r := dispatch.NumRanks - 1; r >= 0; r-- { // critical first
		t := s.Tiers[r]
		out.Tiers = append(out.Tiers, api.GatewayTierStats{
			Tier:       t.Tier,
			Requests:   t.Requests,
			Completed:  t.Completed,
			Shed:       t.Shed,
			Rejected:   t.Rejected,
			QoSMet:     t.QoSMet,
			QoSSatRate: t.Rsat(),
			P50Ms:      t.P50Ms,
			P99Ms:      t.P99Ms,
		})
	}
	for _, inst := range s.Instances {
		out.Instances = append(out.Instances, api.GatewayInstance{
			ID:         inst.ID,
			Type:       inst.Type,
			QueueDepth: inst.QueueDepth,
			Inflight:   inst.Inflight,
			Served:     inst.Served,
			Retiring:   inst.Retiring,
		})
	}
	out.Events = wire.AuditEvents(s.Events)
	out.Reconfigurations = []api.ControllerReconfiguration{}
	if stat, ok := g.ControllerStatus(); ok {
		cs := wire.ControllerStatus(stat)
		out.Controller = &cs
		out.Reconfigurations = cs.Reconfigurations
	}
	return out
}
