package api

import (
	"fmt"
	"math"
	"strings"
)

// Validate checks the schema-level invariants of a service spec — the ones
// that need no catalog access. Catalog resolution (unknown model, unknown
// family) is the server's job and maps to ErrUnknownModel.
func (s ServiceSpec) Validate() *Error {
	if strings.TrimSpace(s.Model) == "" {
		return &Error{Code: ErrInvalidRequest, Message: "model is required"}
	}
	if s.QoSPercentile < 0 || s.QoSPercentile >= 1 {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("qos_percentile %g out of [0,1) (0 means default 0.99)", s.QoSPercentile)}
	}
	if s.Queries < 0 {
		return &Error{Code: ErrInvalidRequest, Message: "queries must be non-negative"}
	}
	if s.RateScale < 0 {
		return &Error{Code: ErrInvalidRequest, Message: "rate_scale must be non-negative"}
	}
	// An empty list would mean "no pool", but omitempty marshals it away
	// as "the Table 3 pool"; the pool constructor rejects it anyway.
	if s.Families != nil && len(s.Families) == 0 {
		return &Error{Code: ErrInvalidRequest,
			Message: "families must list at least one family (omit it for the model's Table 3 pool)"}
	}
	seen := map[string]bool{}
	for _, f := range s.Families {
		if strings.TrimSpace(f) == "" {
			return &Error{Code: ErrInvalidRequest, Message: "families entries must be non-empty"}
		}
		if seen[f] {
			return &Error{Code: ErrInvalidRequest, Message: fmt.Sprintf("duplicate family %q", f)}
		}
		seen[f] = true
	}
	if err := s.Dispatch.Validate(); err != nil {
		return err
	}
	if err := s.ClassMix.Validate(); err != nil {
		return err
	}
	return nil
}

// Validate checks a dispatch spec; a nil spec means the FCFS default.
func (d *DispatchSpec) Validate() *Error {
	if d == nil {
		return nil
	}
	known := d.Policy == ""
	for _, p := range DispatchPolicies() {
		if d.Policy == p {
			known = true
		}
	}
	if !known {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("unknown dispatch policy %q (known: %v)", d.Policy, DispatchPolicies())}
	}
	if d.ShedQueueLength < 0 {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("shed_queue_length %d must be non-negative", d.ShedQueueLength)}
	}
	return nil
}

// Validate checks a class mix; a nil mix means the all-standard default.
func (m *ClassMix) Validate() *Error {
	if m == nil {
		return nil
	}
	for _, w := range []float64{m.Critical, m.Standard, m.Sheddable} {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return &Error{Code: ErrInvalidRequest,
				Message: fmt.Sprintf("class_mix weights must be finite and non-negative, got %+v", *m)}
		}
	}
	return nil
}

// Validate checks an evaluate request. The configuration's dimensionality is
// checked later against the resolved pool; here only shape-independent
// invariants apply.
func (r EvaluateRequest) Validate() *Error {
	if err := r.ServiceSpec.Validate(); err != nil {
		return err
	}
	if len(r.Config) == 0 {
		return &Error{Code: ErrInvalidConfig, Message: "config is required"}
	}
	for i, v := range r.Config {
		if v < 0 {
			return &Error{Code: ErrInvalidConfig,
				Message: fmt.Sprintf("config[%d] = %d is negative", i, v)}
		}
	}
	return nil
}

// Validate checks the schema-level invariants of a controller spec. Named
// scenarios are resolved by the server (unknown ones answer
// ErrInvalidRequest there too).
func (s ControllerSpec) Validate() *Error {
	if err := s.ServiceSpec.Validate(); err != nil {
		return err
	}
	if s.Scenario != "" && len(s.Phases) > 0 {
		return &Error{Code: ErrInvalidRequest, Message: "scenario and phases are mutually exclusive"}
	}
	// An empty list would mean "no load", but omitempty marshals it away
	// as "the default spike scenario".
	if s.Phases != nil && len(s.Phases) == 0 {
		return &Error{Code: ErrInvalidRequest,
			Message: "phases must list at least one phase (omit it for a named scenario)"}
	}
	total := s.TotalQueries
	if len(s.Phases) > 0 {
		total = 0
		for i, ph := range s.Phases {
			if ph.Queries <= 0 {
				return &Error{Code: ErrInvalidRequest,
					Message: fmt.Sprintf("phases[%d].queries must be positive, got %d", i, ph.Queries)}
			}
			if ph.RateScale <= 0 || math.IsNaN(ph.RateScale) || math.IsInf(ph.RateScale, 0) {
				return &Error{Code: ErrInvalidRequest,
					Message: fmt.Sprintf("phases[%d].rate_scale must be positive and finite, got %g", i, ph.RateScale)}
			}
			total += ph.Queries
		}
	}
	if total < 0 || total > MaxControllerQueries {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("replay length %d out of [0, %d]", total, MaxControllerQueries)}
	}
	if s.InitialBudget < 0 {
		return &Error{Code: ErrInvalidBudget,
			Message: fmt.Sprintf("initial_budget %d must be positive (omit for the default)", s.InitialBudget)}
	}
	if s.AdaptBudget < 0 {
		return &Error{Code: ErrInvalidBudget,
			Message: fmt.Sprintf("adapt_budget %d must be positive (omit for the default)", s.AdaptBudget)}
	}
	for name, v := range map[string]float64{
		"window_ms":                s.WindowMs,
		"tick_ms":                  s.TickMs,
		"dwell_ms":                 s.DwellMs,
		"cooldown_ms":              s.CooldownMs,
		"migration_setup_hours":    s.MigrationSetupHours,
		"migration_teardown_hours": s.MigrationTeardownHours,
		"amortization_hours":       s.AmortizationHours,
	} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return &Error{Code: ErrInvalidRequest,
				Message: fmt.Sprintf("%s must be finite and non-negative, got %g", name, v)}
		}
	}
	// The tick loop runs once per TickMs of stream time across the whole
	// replay: a microscopic cadence (or window) would hold a controller
	// worker near-indefinitely. Zero still means "server default".
	if s.TickMs != 0 && s.TickMs < MinControllerTickMs {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("tick_ms %g below minimum %g (omit for the default)", s.TickMs, MinControllerTickMs)}
	}
	if s.WindowMs != 0 && s.WindowMs < MinControllerWindowMs {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("window_ms %g below minimum %g (omit for the default)", s.WindowMs, MinControllerWindowMs)}
	}
	if s.RelThreshold < 0 || s.RelThreshold >= 1 || math.IsNaN(s.RelThreshold) {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("rel_threshold %g out of [0,1) (0 means default 0.25)", s.RelThreshold)}
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the schema-level invariants of a chaos storm spec.
func (c ChaosSpec) Validate() *Error {
	if c.HorizonMs <= 0 || math.IsNaN(c.HorizonMs) || math.IsInf(c.HorizonMs, 0) {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("chaos.horizon_ms %g must be positive and finite", c.HorizonMs)}
	}
	for name, v := range map[string]float64{
		"chaos.warning_ms":         c.WarningMs,
		"chaos.failures_per_hour":  c.FailuresPerHour,
		"chaos.slowdowns_per_hour": c.SlowdownsPerHour,
		"chaos.slowdown_ms":        c.SlowdownMs,
		"chaos.price_step_ms":      c.PriceStepMs,
		"chaos.price_volatility":   c.PriceVolatility,
		"chaos.restore_after_ms":   c.RestoreAfterMs,
	} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return &Error{Code: ErrInvalidRequest,
				Message: fmt.Sprintf("%s must be finite and non-negative, got %g", name, v)}
		}
	}
	// RevocationMultiplier may be negative (disables revocations), but not
	// non-finite; SlowdownFactor below 1 would speed instances up.
	if math.IsNaN(c.RevocationMultiplier) || math.IsInf(c.RevocationMultiplier, 0) {
		return &Error{Code: ErrInvalidRequest,
			Message: "chaos.revocation_multiplier must be finite"}
	}
	if c.SlowdownFactor != 0 && (c.SlowdownFactor < 1 || math.IsNaN(c.SlowdownFactor) || math.IsInf(c.SlowdownFactor, 0)) {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("chaos.slowdown_factor %g must be at least 1 (omit for the default)", c.SlowdownFactor)}
	}
	return nil
}

// Validate checks the schema-level invariants of a fleet spec: model count
// and uniqueness, budget shape, and the per-model floors fitting the shared
// budget. Catalog resolution stays the server's job.
func (s FleetSpec) Validate() *Error {
	if len(s.Models) == 0 {
		return &Error{Code: ErrInvalidRequest, Message: "models is required"}
	}
	if len(s.Models) > MaxFleetModels {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("%d models exceed the fleet cap %d", len(s.Models), MaxFleetModels)}
	}
	if s.BudgetPerHour <= 0 || math.IsNaN(s.BudgetPerHour) || math.IsInf(s.BudgetPerHour, 0) {
		return &Error{Code: ErrInvalidBudget,
			Message: fmt.Sprintf("budget_per_hour %g must be positive and finite", s.BudgetPerHour)}
	}
	if s.SearchBudget < 0 {
		return &Error{Code: ErrInvalidBudget,
			Message: fmt.Sprintf("search_budget %d must be positive (omit for the default)", s.SearchBudget)}
	}
	if s.RefineBudget < 0 {
		return &Error{Code: ErrInvalidBudget,
			Message: fmt.Sprintf("refine_budget %d must be positive (omit for the default)", s.RefineBudget)}
	}
	if s.Parallelism < 0 || s.Parallelism > MaxParallelism {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("parallelism %d out of [0, %d]", s.Parallelism, MaxParallelism)}
	}
	names := map[string]bool{}
	floors := 0.0
	for i, m := range s.Models {
		if err := m.ServiceSpec.Validate(); err != nil {
			err.Message = fmt.Sprintf("models[%d]: %s", i, err.Message)
			return err
		}
		name := m.Name
		if name == "" {
			name = m.Model
		}
		if names[name] {
			return &Error{Code: ErrInvalidRequest,
				Message: fmt.Sprintf("models[%d]: duplicate fleet model name %q (set distinct names)", i, name)}
		}
		names[name] = true
		if m.Weight < 0 || math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) {
			return &Error{Code: ErrInvalidRequest,
				Message: fmt.Sprintf("models[%d]: weight %g must be finite and non-negative", i, m.Weight)}
		}
		if m.FloorCostPerHour < 0 || math.IsNaN(m.FloorCostPerHour) || math.IsInf(m.FloorCostPerHour, 0) {
			return &Error{Code: ErrInvalidRequest,
				Message: fmt.Sprintf("models[%d]: floor_cost_per_hour %g must be finite and non-negative", i, m.FloorCostPerHour)}
		}
		if m.SearchBudget < 0 {
			return &Error{Code: ErrInvalidBudget,
				Message: fmt.Sprintf("models[%d]: search_budget %d must be positive (omit for the default)", i, m.SearchBudget)}
		}
		floors += m.FloorCostPerHour
	}
	if floors > s.BudgetPerHour {
		return &Error{Code: ErrInvalidBudget,
			Message: fmt.Sprintf("floors sum to $%.3f/hr, exceeding the $%.3f/hr budget", floors, s.BudgetPerHour)}
	}
	return nil
}

// Validate checks an optimize request. Budget zero means "use the server
// default"; explicit negative budgets are the caller's mistake.
func (r OptimizeRequest) Validate() *Error {
	if err := r.ServiceSpec.Validate(); err != nil {
		return err
	}
	if r.Budget < 0 {
		return &Error{Code: ErrInvalidBudget,
			Message: fmt.Sprintf("budget %d must be positive (omit for the default)", r.Budget)}
	}
	if r.Parallelism < 0 || r.Parallelism > MaxParallelism {
		return &Error{Code: ErrInvalidRequest,
			Message: fmt.Sprintf("parallelism %d out of [0, %d]", r.Parallelism, MaxParallelism)}
	}
	return nil
}
