package server

import (
	"context"
	"fmt"
	"net/http"

	"ribbon"
	"ribbon/api"
	"ribbon/internal/obs"
	"ribbon/internal/wire"
)

// flt is the server-side state of one fleet optimization. fleet is
// immutable after create; the lifecycle is behind the store mutex. As with
// controller runs, the live pipeline snapshot is not stored here —
// ribbon.Fleet publishes it concurrency-safely via Status(), so view()
// always reads the freshest state.
type flt struct {
	lifecycle
	spec  api.FleetSpec
	fleet *ribbon.Fleet
}

// fleetStore is the fleet-run lifecycle over the shared store machinery
// (store.go). sm and logger splice the server's telemetry into every fleet
// it creates; both may be nil (tests).
type fleetStore struct {
	*store[flt, api.Fleet]
	sm     *serverMetrics
	logger *obs.Logger
}

func newFleetStore(workers, queueDepth, retain int) *fleetStore {
	st := &fleetStore{}
	st.store = newStore("fleet", "fleet", workers, queueDepth, retain,
		func(f *flt) *lifecycle { return &f.lifecycle },
		execFleet, (*flt).view)
	return st
}

// execFleet runs one fleet optimization on a worker goroutine.
func execFleet(ctx context.Context, f *flt) *api.Error {
	if _, err := f.fleet.Optimize(ctx); ctx.Err() == nil && err != nil {
		return &api.Error{Code: api.ErrInternal, Message: err.Error()}
	}
	return nil
}

// create resolves the spec against the catalogs synchronously — an unknown
// model is a 400 here, not an asynchronous failure — then registers and
// enqueues the run.
func (st *fleetStore) create(spec api.FleetSpec) (api.Fleet, *api.Error) {
	cfg := ribbon.FleetConfig{
		BudgetPerHour: spec.BudgetPerHour,
		SearchBudget:  spec.SearchBudget,
		RefineBudget:  spec.RefineBudget,
		RefineModels:  spec.RefineModels,
		Logger:        st.logger,
	}
	for _, m := range spec.Models {
		svc := serviceConfig(m.ServiceSpec, ribbon.SearchOptions{
			Parallelism: spec.Parallelism,
		})
		svc.DispatchObserver = st.sm.observer()
		cfg.Models = append(cfg.Models, ribbon.FleetModel{
			Name:             m.Name,
			Service:          svc,
			Weight:           m.Weight,
			FloorCostPerHour: m.FloorCostPerHour,
			SearchBudget:     m.SearchBudget,
		})
	}
	fl, err := ribbon.NewFleet(cfg)
	if err != nil {
		return api.Fleet{}, apiError(err)
	}
	return st.add(&flt{spec: spec, fleet: fl})
}

// view snapshots the run as its wire representation; the pipeline snapshot
// comes straight from the (concurrency-safe) fleet. Callers hold st.mu.
func (f *flt) view() api.Fleet {
	return api.Fleet{
		ID:         f.id,
		Status:     f.status,
		CreatedAt:  f.created,
		StartedAt:  f.started,
		FinishedAt: f.finished,
		Spec:       f.spec,
		Snapshot:   fleetStatusDTO(f.fleet.Status()),
		Error:      f.err,
	}
}

// fleetStatusDTO maps the library snapshot onto the wire schema.
func fleetStatusDTO(st ribbon.FleetStatus) api.FleetStatus {
	out := api.FleetStatus{
		State:         string(st.State),
		Samples:       st.Samples,
		BudgetPerHour: st.BudgetPerHour,
		Models:        make([]api.FleetModelStatus, 0, len(st.Models)),
		Refined:       st.Refined,
		Events:        wire.AuditEvents(st.Events),
	}
	for _, m := range st.Models {
		out.Models = append(out.Models, api.FleetModelStatus{
			Name:         m.Name,
			Phase:        string(m.Phase),
			Samples:      m.Samples,
			FrontierSize: m.FrontierSize,
		})
	}
	if st.Plan == nil {
		return out
	}
	p := st.Plan
	out.TotalCostPerHour = p.TotalPerHour
	feasible, allMeet, minScore := p.Feasible, p.AllMeetQoS, p.MinScore
	out.Feasible = &feasible
	out.AllMeetQoS = &allMeet
	out.MinScore = &minScore
	out.Binding = p.Binding
	for i := range out.Models {
		a, ok := p.Allocation(out.Models[i].Name)
		if !ok {
			continue
		}
		out.Models[i].Allocation = &api.FleetAllocation{
			Name:           a.Name,
			Config:         a.Point.Config,
			CostPerHour:    a.Point.CostPerHour,
			ChargedPerHour: a.ChargedPerHour,
			QoSSatRate:     a.Point.Rsat,
			MeetsQoS:       a.Point.MeetsQoS,
			Score:          a.Score,
		}
	}
	return out
}

func (s *Server) handleCreateFleet(w http.ResponseWriter, r *http.Request) {
	var spec api.FleetSpec
	if e := s.decode(w, r, &spec); e != nil {
		s.writeErr(w, e)
		return
	}
	if e := spec.Validate(); e != nil {
		s.writeErr(w, e)
		return
	}
	f, e := s.fleets.create(spec)
	if e != nil {
		s.writeErr(w, e)
		return
	}
	w.Header().Set("Location", "/v1/fleets/"+f.ID)
	s.writeJSON(w, http.StatusAccepted, f)
}

func (s *Server) handleListFleets(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, api.FleetList{Fleets: s.fleets.list()})
}

func (s *Server) handleGetFleet(w http.ResponseWriter, r *http.Request) {
	f, ok := s.fleets.get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, &api.Error{Code: api.ErrNotFound,
			Message: fmt.Sprintf("no fleet %q", r.PathValue("id"))})
		return
	}
	s.writeJSON(w, http.StatusOK, f)
}

func (s *Server) handleCancelFleet(w http.ResponseWriter, r *http.Request) {
	f, e := s.fleets.cancel(r.PathValue("id"))
	if e != nil {
		s.writeErr(w, e)
		return
	}
	s.writeJSON(w, http.StatusOK, f)
}
