// Package wire is the one mapping layer between the library and the
// versioned api schema for both HTTP front ends: internal/server behind
// ribbon-server and internal/gateway behind ribbon-gateway. It owns the
// snapshot mappers they share (controller status, audit events, SLO
// status) and the JSON body discipline: indented responses, error
// envelopes whose HTTP status follows the error code, and strict request
// decoding.
//
// The mappers cannot live in api: api imports only the standard library,
// so the Go client never pulls in internal packages.
package wire

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"ribbon/api"
	"ribbon/internal/controller"
	"ribbon/internal/obs"
	"ribbon/internal/slo"
)

// WriteJSON writes v as an indented JSON response with the given status.
// It returns the encoder's error; the status line is already sent by then.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

// statusFor maps error codes to HTTP statuses.
func statusFor(code api.ErrorCode) int {
	switch code {
	case api.ErrNotFound:
		return http.StatusNotFound
	case api.ErrJobFinished:
		return http.StatusConflict
	case api.ErrOverloaded:
		return http.StatusServiceUnavailable
	case api.ErrInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// WriteError writes e as an error envelope. The HTTP status follows e.Code,
// and every 503 carries a Retry-After hint. It returns the encoder's error.
func WriteError(w http.ResponseWriter, e *api.Error) error {
	status := statusFor(e.Code)
	if status == http.StatusServiceUnavailable {
		// Overloaded means a bounded queue is momentarily full: a worker
		// pool's on the control plane, the serving pool's on the gateway.
		// A slot frees within an evaluation or a service time or two, so
		// one second is a fair wall-clock hint, and the client folds it
		// into its jittered backoff.
		w.Header().Set("Retry-After", "1")
	}
	return WriteJSON(w, status, api.ErrorResponse{Error: e})
}

// Decode parses one JSON value from r into v strictly: unknown fields and
// any data after the value are caller mistakes. Callers bound r, e.g. with
// http.MaxBytesReader.
func Decode(r io.Reader, v any) *api.Error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &api.Error{Code: api.ErrInvalidRequest, Message: "bad request body: " + err.Error()}
	}
	// Token reports io.EOF only when nothing but whitespace follows; More
	// alone would let a stray closing '}' or ']' through.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return &api.Error{Code: api.ErrInvalidRequest, Message: "trailing data after JSON body"}
	}
	return nil
}

// ControllerStatus maps a control-loop snapshot onto the wire schema.
func ControllerStatus(st controller.Status) api.ControllerStatus {
	out := api.ControllerStatus{
		State:                string(st.State),
		NowMs:                st.NowMs,
		Arrivals:             st.Arrivals,
		Ticks:                st.Ticks,
		EstimatedScale:       st.EstimatedScale,
		AppliedScale:         st.AppliedScale,
		PendingForMs:         st.PendingForMs,
		Incumbent:            st.Incumbent,
		IncumbentCostPerHour: st.IncumbentCostPerHour,
		IncumbentMeetsQoS:    st.IncumbentMeetsQoS,
		SearchSamples:        st.SearchSamples,
		LiveConfig:           st.LiveConfig,
		Degraded:             st.Degraded,
		CapacityEvents:       st.CapacityEvents,
		AccruedCost:          st.AccruedCost,
		Reconfigurations:     make([]api.ControllerReconfiguration, 0, len(st.Reconfigurations)),
	}
	for _, r := range st.Reconfigurations {
		out.Reconfigurations = append(out.Reconfigurations, api.ControllerReconfiguration{
			AtMs:              r.AtMs,
			ObservedScale:     r.ObservedScale,
			OldScale:          r.OldScale,
			NewScale:          r.NewScale,
			From:              r.From,
			To:                r.To,
			FromCostPerHour:   r.FromCostPerHour,
			ToCostPerHour:     r.ToCostPerHour,
			MigrationCost:     r.MigrationCost,
			Trigger:           r.Trigger,
			IncumbentMeetsQoS: r.IncumbentMeetsQoS,
			Samples:           r.Samples,
			Applied:           r.Applied,
			Reason:            r.Reason,
		})
	}
	out.Events = AuditEvents(st.Events)
	return out
}

// AuditEvents maps obs audit events onto the wire schema; nil when there
// are none.
func AuditEvents(evs []obs.Event) []api.AuditEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]api.AuditEvent, 0, len(evs))
	for _, ev := range evs {
		dto := api.AuditEvent{
			Seq:     ev.Seq,
			AtMs:    ev.AtMs,
			Kind:    string(ev.Kind),
			Message: ev.Message,
		}
		for _, f := range ev.Fields {
			dto.Fields = append(dto.Fields, api.AuditField{Key: f.Key, Value: f.Value})
		}
		out = append(out, dto)
	}
	return out
}

// SLOStatus maps an SLO engine snapshot onto the wire schema.
func SLOStatus(st slo.Status) api.SLOStatus {
	out := api.SLOStatus{
		AtMs:       st.AtMs,
		Firing:     st.Firing,
		Objectives: make([]api.SLOObjective, 0, len(st.Objectives)),
	}
	for _, o := range st.Objectives {
		dto := api.SLOObjective{
			Name:            o.Name,
			Tier:            o.Tier,
			Kind:            o.Kind,
			Target:          o.Target,
			Good:            o.Good,
			Total:           o.Total,
			ErrorRate:       o.ErrorRate,
			BudgetRemaining: o.BudgetRemaining,
		}
		for _, w := range o.Windows {
			dto.Windows = append(dto.Windows, api.SLOWindow{
				WindowMs:  w.WindowMs,
				ErrorRate: w.ErrorRate,
				BurnRate:  w.BurnRate,
			})
		}
		for _, rl := range o.Rules {
			dto.Rules = append(dto.Rules, api.SLORule{
				Severity:  rl.Severity,
				Threshold: rl.Threshold,
				LongMs:    rl.LongMs,
				ShortMs:   rl.ShortMs,
				BurnLong:  rl.BurnLong,
				BurnShort: rl.BurnShort,
				Firing:    rl.Firing,
				SinceMs:   rl.SinceMs,
			})
		}
		out.Objectives = append(out.Objectives, dto)
	}
	return out
}
