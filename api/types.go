// Package api defines the versioned, typed request/response contract of the
// Ribbon control-plane HTTP API (v1). Both the server (internal/server,
// served by cmd/ribbon-server) and the Go client (package client) build on
// these DTOs, so the wire schema lives in exactly one place.
//
// Every error body is an ErrorResponse carrying a machine-readable Code;
// clients should branch on codes, not on message text.
package api

import "time"

// Version is the API version prefix all v1 routes are mounted under.
const Version = "v1"

// ErrorCode is a stable machine-readable error identifier.
type ErrorCode string

// The v1 error codes.
const (
	// ErrInvalidRequest covers malformed JSON, unknown fields, and
	// schema-level validation failures.
	ErrInvalidRequest ErrorCode = "invalid_request"
	// ErrUnknownModel means the requested model is not in the catalog
	// (or the service spec could not be resolved into a pool).
	ErrUnknownModel ErrorCode = "unknown_model"
	// ErrInvalidConfig means the configuration vector does not match the
	// pool (wrong dimensionality or negative counts).
	ErrInvalidConfig ErrorCode = "invalid_config"
	// ErrInvalidBudget means the optimize budget is not positive.
	ErrInvalidBudget ErrorCode = "invalid_budget"
	// ErrNotFound means the referenced resource (e.g. job id) does not
	// exist.
	ErrNotFound ErrorCode = "not_found"
	// ErrJobFinished means a cancel was requested for a job already in a
	// terminal state.
	ErrJobFinished ErrorCode = "job_finished"
	// ErrOverloaded means the server cannot take or finish the work
	// right now — the job queue is full, or a synchronous request was
	// aborted by server shutdown; retry later.
	ErrOverloaded ErrorCode = "overloaded"
	// ErrInternal is an unexpected server-side failure.
	ErrInternal ErrorCode = "internal"
)

// Error is the structured error payload of every non-2xx response.
type Error struct {
	// Code is the stable machine-readable identifier.
	Code ErrorCode `json:"code"`
	// Message is a human-readable explanation.
	Message string `json:"message"`
	// HTTPStatus is the HTTP status the error travelled with; it is set
	// by the client when decoding a response and never serialized.
	HTTPStatus int `json:"-"`
	// RetryAfter is the server-suggested delay before retrying, parsed
	// from the Retry-After header of a 503 response; zero when the server
	// sent none. Like HTTPStatus it is set by the client when decoding a
	// response and never serialized.
	RetryAfter time.Duration `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string { return string(e.Code) + ": " + e.Message }

// ErrorResponse is the wire envelope of an Error.
type ErrorResponse struct {
	Error *Error `json:"error"`
}

// ModelInfo describes one catalog model (Table 1 of the paper).
type ModelInfo struct {
	Name        string  `json:"name"`
	Category    string  `json:"category"`
	QoSTargetMs float64 `json:"qos_target_ms"`
	Description string  `json:"description"`
}

// InstanceInfo describes one catalog cloud instance type (Table 2).
type InstanceInfo struct {
	Name         string  `json:"name"`
	Family       string  `json:"family"`
	Category     string  `json:"category"`
	VCPU         int     `json:"vcpu"`
	MemoryGiB    int     `json:"memory_gib"`
	PricePerHour float64 `json:"price_per_hour"`
	Description  string  `json:"description,omitempty"`
}

// DispatchPolicy names a query-routing policy of the serving pool.
type DispatchPolicy string

// The built-in dispatch policies (see docs/dispatch.md).
const (
	// DispatchFCFS is the paper's preference-order first-come-first-serve
	// rule; the default when the request omits a dispatch spec.
	DispatchFCFS DispatchPolicy = "fcfs"
	// DispatchLeastLoaded is join-shortest-queue over per-instance queues.
	DispatchLeastLoaded DispatchPolicy = "least-loaded"
	// DispatchCostRandom picks among idle instances at random, weighted by
	// inverse price.
	DispatchCostRandom DispatchPolicy = "cost-random"
	// DispatchCriticality serves Critical before Standard before Sheddable
	// and sheds Sheddable queries under queue pressure.
	DispatchCriticality DispatchPolicy = "criticality"
)

// DispatchPolicies lists the selectable policies.
func DispatchPolicies() []DispatchPolicy {
	return []DispatchPolicy{DispatchFCFS, DispatchLeastLoaded, DispatchCostRandom, DispatchCriticality}
}

// DispatchSpec selects and parameterizes the pool's query-routing policy.
type DispatchSpec struct {
	// Policy is the routing policy; "fcfs" when empty.
	Policy DispatchPolicy `json:"policy,omitempty"`
	// ShedQueueLength is the criticality policy's queue-pressure
	// threshold: once this many queries wait in the pool, arriving
	// sheddable queries are dropped. Server default (16) when omitted;
	// ignored by the other policies.
	ShedQueueLength int `json:"shed_queue_length,omitempty"`
}

// ClassMix sets the criticality composition of the generated workload as
// relative weights. Omitting it (or all zeros) keeps the legacy all-standard
// stream.
type ClassMix struct {
	Critical  float64 `json:"critical,omitempty"`
	Standard  float64 `json:"standard,omitempty"`
	Sheddable float64 `json:"sheddable,omitempty"`
}

// ServiceSpec names the inference service a request operates on. It is the
// shared head of EvaluateRequest and OptimizeRequest.
type ServiceSpec struct {
	// Model is a catalog model name (see GET /v1/models). Required.
	Model string `json:"model"`
	// Families is the ordered diverse pool; the model's Table 3 default
	// when omitted.
	Families []string `json:"families,omitempty"`
	// QoSPercentile is the tail-latency target percentile in (0,1);
	// 0.99 when omitted.
	QoSPercentile float64 `json:"qos_percentile,omitempty"`
	// Queries sets the evaluation window length; 4000 when omitted.
	Queries int `json:"queries,omitempty"`
	// Seed makes runs reproducible; 42 when omitted.
	Seed uint64 `json:"seed,omitempty"`
	// RateScale multiplies the model's default arrival rate; 1 when
	// omitted.
	RateScale float64 `json:"rate_scale,omitempty"`
	// Dispatch selects the pool's query-routing policy; preference-order
	// FCFS when omitted.
	Dispatch *DispatchSpec `json:"dispatch,omitempty"`
	// ClassMix generates a mixed-criticality workload for the dispatch
	// policies; all-standard when omitted.
	ClassMix *ClassMix `json:"class_mix,omitempty"`
}

// EvaluateRequest asks for one configuration to be deployed and measured.
type EvaluateRequest struct {
	ServiceSpec
	// Config is the instance-count vector over the pool's types.
	Config []int `json:"config"`
}

// ClassStat is the per-criticality-class slice of an evaluation.
type ClassStat struct {
	Class      string  `json:"class"`
	Queries    int     `json:"queries"`
	QoSSatRate float64 `json:"qos_sat_rate"`
	Shed       int     `json:"shed,omitempty"`
}

// EvaluateResponse reports one configuration measurement.
type EvaluateResponse struct {
	Config      []int   `json:"config"`
	CostPerHour float64 `json:"cost_per_hour"`
	QoSSatRate  float64 `json:"qos_sat_rate"`
	MeetsQoS    bool    `json:"meets_qos"`
	// MeanLatencyMs and TailLatencyMs are -1 when no finite value exists
	// (an unservable pool, or the tail percentile landing on refused or
	// shed queries) — JSON cannot carry infinity.
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	TailLatencyMs float64 `json:"tail_latency_ms"`
	// Policy names the dispatch policy the pool ran under.
	Policy string `json:"policy,omitempty"`
	// ShedRate is the fraction of measured queries dropped by the policy.
	ShedRate float64 `json:"shed_rate,omitempty"`
	// Classes breaks the measurement down per criticality tier; present
	// only for mixed-criticality workloads.
	Classes []ClassStat `json:"classes,omitempty"`
}

// OptimizeRequest asks for a full BO search over the service's pool.
type OptimizeRequest struct {
	ServiceSpec
	// Budget is the maximum number of real evaluations; 40 when omitted.
	// Non-positive explicit values are rejected with ErrInvalidBudget.
	Budget int `json:"budget,omitempty"`
	// Parallelism is the number of configurations the search may evaluate
	// concurrently; omitted or 1 means the single-threaded loop. Parallel
	// evaluation only prefetches, picking what to prefetch from the
	// measured per-evaluation cost: the search result is bit-identical to
	// the single-threaded search at any setting — only wall-clock time
	// changes. Capped at MaxParallelism.
	Parallelism int `json:"parallelism,omitempty"`
}

// MaxParallelism bounds OptimizeRequest.Parallelism: beyond this the
// speculative evaluations only burn CPU without plausible wall-clock gain.
const MaxParallelism = 64

// OptimizeResponse summarizes a completed (or cancelled) search. The
// best_* and saving fields are present only when Found is true.
type OptimizeResponse struct {
	Found            bool    `json:"found"`
	Samples          int     `json:"samples"`
	ExploredConfigs  int     `json:"explored_configs"`
	ViolatingSamples int     `json:"violating_samples"`
	ExplorationCost  float64 `json:"exploration_cost_hr"`

	BestConfig      []int   `json:"best_config,omitempty"`
	BestCostPerHour float64 `json:"best_cost_per_hour,omitempty"`
	BestQoSSatRate  float64 `json:"best_qos_sat_rate,omitempty"`

	// HomogeneousCostPerHour and Saving compare against the cheapest
	// single-type QoS-meeting pool when one exists.
	HomogeneousCostPerHour float64 `json:"homogeneous_cost_per_hour,omitempty"`
	Saving                 float64 `json:"saving,omitempty"`
}

// JobStatus is the lifecycle state of an asynchronous optimize job.
type JobStatus string

// The job lifecycle: queued -> running -> done | failed | cancelled.
const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobProgress is the live view of a running search, updated after every
// evaluation step.
type JobProgress struct {
	// Samples is the number of real evaluations spent so far.
	Samples int `json:"samples"`
	// Found and BestCostPerHour track the incumbent QoS-meeting
	// configuration, if any.
	Found           bool    `json:"found"`
	BestCostPerHour float64 `json:"best_cost_per_hour,omitempty"`
}

// Job is an asynchronous optimize run.
type Job struct {
	ID         string     `json:"id"`
	Status     JobStatus  `json:"status"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Request echoes the accepted OptimizeRequest.
	Request OptimizeRequest `json:"request"`
	// Progress tracks the search while the job runs.
	Progress JobProgress `json:"progress"`
	// Result is set once the job is done — and, partially, when it was
	// cancelled mid-search (Samples then reports the budget actually
	// spent before cancellation).
	Result *OptimizeResponse `json:"result,omitempty"`
	// Error is set when the job failed.
	Error *Error `json:"error,omitempty"`
}

// JobList is the response of GET /v1/jobs.
type JobList struct {
	Jobs []Job `json:"jobs"`
}

// LoadPhase is one segment of a piecewise load schedule: Queries arrivals at
// RateScale times the model's base arrival rate.
type LoadPhase struct {
	Queries   int     `json:"queries"`
	RateScale float64 `json:"rate_scale"`
}

// MaxControllerQueries bounds the total replay length of one controller run;
// longer replays hold a worker for proportionally longer.
const MaxControllerQueries = 200_000

// MinControllerTickMs and MinControllerWindowMs are the lower bounds of the
// explicit loop-timing fields: the tick loop runs once per TickMs of stream
// time over the whole replay, so a microscopic cadence would hold a
// controller worker near-indefinitely — subverting the MaxControllerQueries
// bound.
const (
	MinControllerTickMs   = 10.0
	MinControllerWindowMs = 100.0
)

// ControllerSpec asks for a continuous pool-controller run: the controller
// replays a load schedule (a named scenario or explicit phases) against the
// service, reconfiguring the pool on confirmed load shifts. All tuning
// fields are optional; zero means the server-side default documented in
// docs/controller.md.
type ControllerSpec struct {
	ServiceSpec
	// Scenario names a built-in schedule shape (GET /v1/scenarios);
	// "spike" when neither Scenario nor Phases is set. Mutually exclusive
	// with Phases.
	Scenario string `json:"scenario,omitempty"`
	// Phases is an explicit piecewise schedule. Mutually exclusive with
	// Scenario.
	Phases []LoadPhase `json:"phases,omitempty"`
	// TotalQueries is the replay length for a named scenario; 20000 when
	// omitted. Ignored when Phases is set (their sum wins). Values above
	// MaxControllerQueries are rejected with ErrInvalidRequest.
	TotalQueries int `json:"total_queries,omitempty"`
	// InitialBudget bounds the cold search establishing the first
	// incumbent; the server's optimize default when omitted.
	InitialBudget int `json:"initial_budget,omitempty"`
	// AdaptBudget bounds each warm-started re-search; 16 when omitted.
	AdaptBudget int `json:"adapt_budget,omitempty"`
	// WindowMs is the sliding-window length of the load estimator (ms of
	// stream time); 10000 when omitted, at least MinControllerWindowMs
	// when explicit.
	WindowMs float64 `json:"window_ms,omitempty"`
	// TickMs is the change-detector cadence; 1000 when omitted, at least
	// MinControllerTickMs when explicit.
	TickMs float64 `json:"tick_ms,omitempty"`
	// RelThreshold is the minimum relative load deviation that counts as
	// an excursion, in (0,1); 0.25 when omitted.
	RelThreshold float64 `json:"rel_threshold,omitempty"`
	// DwellMs is how long an excursion must persist before the shift is
	// confirmed; 4000 when omitted.
	DwellMs float64 `json:"dwell_ms,omitempty"`
	// CooldownMs suppresses detection after a confirmed shift; 0 when
	// omitted.
	CooldownMs float64 `json:"cooldown_ms,omitempty"`
	// MigrationSetupHours / MigrationTeardownHours price the one-off
	// reconfiguration charge per added/removed instance, in hours of that
	// instance's hourly price; 0.05 / 0.01 when omitted.
	MigrationSetupHours    float64 `json:"migration_setup_hours,omitempty"`
	MigrationTeardownHours float64 `json:"migration_teardown_hours,omitempty"`
	// AmortizationHours is the horizon over which a candidate's saving
	// must repay the migration charge; 1 when omitted.
	AmortizationHours float64 `json:"amortization_hours,omitempty"`
	// Chaos, when set, generates a seeded capacity-event storm (spot
	// revocations, hard failures, price moves) and replays it against the
	// run. See docs/resilience.md.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// UseSpot prices searches and the spend meter at spot-market rates,
	// tracking the storm's price events.
	UseSpot bool `json:"use_spot,omitempty"`
}

// ChaosSpec parameterizes the seeded capacity-event storm of a controller
// run. Every field except HorizonMs is optional; the generated schedule is
// a pure function of these values, so two runs with the same spec replay
// the identical storm.
type ChaosSpec struct {
	// Seed is the storm's master seed; the service seed when omitted.
	Seed uint64 `json:"seed,omitempty"`
	// HorizonMs is the stream-time extent the storm covers. Required and
	// positive; events beyond the replay's end simply never fire.
	HorizonMs float64 `json:"horizon_ms"`
	// RevocationMultiplier scales each family's catalog revocation rate
	// (1 = nominal weather; storms use 10-50x). Negative disables
	// revocations.
	RevocationMultiplier float64 `json:"revocation_multiplier,omitempty"`
	// WarningMs is the revocation notice window; the standard two-minute
	// warning when omitted.
	WarningMs float64 `json:"warning_ms,omitempty"`
	// FailuresPerHour is the hard-failure rate per family; 0 disables.
	FailuresPerHour float64 `json:"failures_per_hour,omitempty"`
	// SlowdownsPerHour is the straggler rate per family; 0 disables.
	SlowdownsPerHour float64 `json:"slowdowns_per_hour,omitempty"`
	// SlowdownFactor is the straggler service-time multiplier; 3 when
	// omitted.
	SlowdownFactor float64 `json:"slowdown_factor,omitempty"`
	// SlowdownMs is the straggler window length; 30000 when omitted.
	SlowdownMs float64 `json:"slowdown_ms,omitempty"`
	// PriceStepMs is the spot-price walk step; 0 disables price events.
	PriceStepMs float64 `json:"price_step_ms,omitempty"`
	// PriceVolatility is the stddev of each log-price step; 0.08 when
	// omitted.
	PriceVolatility float64 `json:"price_volatility,omitempty"`
	// RestoreAfterMs, when positive, refills each revoked or failed
	// instance that many ms after the capacity left.
	RestoreAfterMs float64 `json:"restore_after_ms,omitempty"`
}

// ControllerReconfiguration is one keep-or-switch decision and what
// triggered it. A confirmed load shift and every capacity trigger reach the
// same decision; the record covers both.
type ControllerReconfiguration struct {
	// AtMs is the stream time of the confirmation.
	AtMs float64 `json:"at_ms"`
	// ObservedScale is the estimated load at confirmation; OldScale and
	// NewScale are the provisioned scales before and after. A load shift
	// re-plans for the load it measured, so NewScale == ObservedScale holds
	// only for a load shift; a capacity trigger keeps the applied scale.
	ObservedScale float64 `json:"observed_scale"`
	OldScale      float64 `json:"old_scale"`
	NewScale      float64 `json:"new_scale"`
	// From is the live pool the decision started from (the incumbent minus
	// capacity lost and not yet replaced); To is the re-search's best
	// QoS-meeting configuration, or From when it found none. Both are
	// priced at the rates the decision used (current spot rates for a
	// spot-priced pool).
	From            []int   `json:"from"`
	To              []int   `json:"to"`
	FromCostPerHour float64 `json:"from_cost_per_hour"`
	ToCostPerHour   float64 `json:"to_cost_per_hour"`
	// MigrationCost is the one-off switch charge between From and To.
	MigrationCost float64 `json:"migration_cost,omitempty"`
	// Trigger names what fired: empty for a load shift, "emergency",
	// "drain" or "price" for a capacity event, "slo" for a burn-rate page
	// alert.
	Trigger string `json:"trigger,omitempty"`
	// IncumbentMeetsQoS reports whether From met QoS at NewScale.
	IncumbentMeetsQoS bool `json:"incumbent_meets_qos"`
	// Samples is the number of real evaluations the re-search spent.
	Samples int `json:"samples"`
	// Applied reports whether the pool switched to To; Reason explains
	// the decision either way.
	Applied bool   `json:"applied"`
	Reason  string `json:"reason"`
}

// ControllerStatus is the live control-loop snapshot of a controller run.
type ControllerStatus struct {
	// State is the loop position: warmup, steady, pending, adapting, or
	// done.
	State string `json:"state"`
	// NowMs is the stream time of the last processed event.
	NowMs float64 `json:"now_ms"`
	// Arrivals and Ticks count ingested queries and detector evaluations.
	Arrivals int `json:"arrivals"`
	Ticks    int `json:"ticks"`
	// EstimatedScale is the windowed load estimate relative to the
	// model's base rate; AppliedScale is the load the incumbent pool is
	// provisioned for.
	EstimatedScale float64 `json:"estimated_scale"`
	AppliedScale   float64 `json:"applied_scale"`
	// PendingForMs is how long the current excursion has been dwelled on;
	// 0 unless State is "pending".
	PendingForMs float64 `json:"pending_for_ms,omitempty"`
	// Incumbent is the currently deployed configuration with its price
	// and QoS verdict under the provisioned load.
	Incumbent            []int   `json:"incumbent,omitempty"`
	IncumbentCostPerHour float64 `json:"incumbent_cost_per_hour,omitempty"`
	IncumbentMeetsQoS    bool    `json:"incumbent_meets_qos"`
	// SearchSamples is the total number of real evaluations spent so far.
	SearchSamples int `json:"search_samples"`
	// LiveConfig is the capacity actually serving right now: the incumbent
	// minus instances lost to revocations and failures. Equal to Incumbent
	// when the pool is whole.
	LiveConfig []int `json:"live_config,omitempty"`
	// Degraded reports that LiveConfig is below the decided Incumbent —
	// capacity was lost and not yet replaced.
	Degraded bool `json:"degraded,omitempty"`
	// CapacityEvents counts the chaos/capacity events observed so far.
	CapacityEvents int `json:"capacity_events,omitempty"`
	// AccruedCost is the integrated spend of the live pool so far, in
	// dollars of stream time, at spot rates when the run uses them.
	AccruedCost float64 `json:"accrued_cost,omitempty"`
	// Reconfigurations is the decision history, oldest first; always
	// present (possibly empty).
	Reconfigurations []ControllerReconfiguration `json:"reconfigurations"`
	// Events is the control loop's audit trail (shift detections,
	// keep-or-switch verdicts, cooldowns), oldest first. Timestamps are
	// stream time, so seeded replays produce identical trails.
	Events []AuditEvent `json:"events,omitempty"`
}

// SLOWindow is one look-back window's error and burn measurement of an
// SLO objective.
type SLOWindow struct {
	// WindowMs is the look-back extent in stream-time milliseconds.
	WindowMs float64 `json:"window_ms"`
	// ErrorRate is the windowed error fraction; BurnRate that error rate
	// relative to the objective's sustainable budget spend (1.0 = spending
	// the error budget exactly on schedule).
	ErrorRate float64 `json:"error_rate"`
	BurnRate  float64 `json:"burn_rate"`
}

// SLORule is one multi-window burn-rate alert rule's live state on an
// objective.
type SLORule struct {
	// Severity is "page" or "ticket".
	Severity string `json:"severity"`
	// Threshold is the burn-rate multiple both windows must exceed to fire.
	Threshold float64 `json:"threshold"`
	// LongMs and ShortMs are the two window extents; BurnLong and BurnShort
	// the current burn rates over them.
	LongMs    float64 `json:"long_ms"`
	ShortMs   float64 `json:"short_ms"`
	BurnLong  float64 `json:"burn_long"`
	BurnShort float64 `json:"burn_short"`
	// Firing reports an active alert; SinceMs its stream-time onset.
	Firing  bool    `json:"firing"`
	SinceMs float64 `json:"since_ms,omitempty"`
}

// SLOObjective is one indicator's objective status: cumulative counts,
// remaining error budget, windowed burn rates, and alert-rule states.
type SLOObjective struct {
	// Name identifies the indicator, e.g. "qos_attainment/critical"; Tier
	// and Kind are its criticality tier and measurement kind.
	Name string `json:"name"`
	Tier string `json:"tier,omitempty"`
	Kind string `json:"kind,omitempty"`
	// Target is the objective in (0,1), e.g. 0.99 attainment.
	Target float64 `json:"target"`
	// Good and Total are the cumulative indicator counts; ErrorRate the
	// cumulative error fraction.
	Good      float64 `json:"good"`
	Total     float64 `json:"total"`
	ErrorRate float64 `json:"error_rate"`
	// BudgetRemaining is the unspent fraction of the error budget (1 -
	// error/(1-target)); negative once overspent.
	BudgetRemaining float64 `json:"budget_remaining"`
	// Windows are the distinct look-back measurements the rules evaluate.
	Windows []SLOWindow `json:"windows,omitempty"`
	// Rules are the alert rules and their live burn-rate state.
	Rules []SLORule `json:"rules,omitempty"`
}

// SLOStatus is the response of GET /v1/slo (control plane) and
// GET /v1/gateway/slo (data plane): the SLO engine's point-in-time view.
type SLOStatus struct {
	// AtMs is the stream time of the last engine sample.
	AtMs float64 `json:"at_ms"`
	// Firing counts the currently active alerts across all objectives.
	Firing int `json:"firing"`
	// Objectives lists every tracked objective.
	Objectives []SLOObjective `json:"objectives"`
}

// AuditEvent is one typed control-plane decision record. See
// docs/observability.md for the event catalog.
type AuditEvent struct {
	// Seq orders events within one component's trail, starting at 1.
	Seq int `json:"seq"`
	// AtMs is the decision's stream-time timestamp, never wall clock.
	AtMs float64 `json:"at_ms"`
	// Kind is the event type, e.g. "shift_detected" or "reconfigure".
	Kind string `json:"kind"`
	// Message is a human-readable one-liner.
	Message string `json:"message"`
	// Fields carries the decision's structured details in a fixed order.
	Fields []AuditField `json:"fields,omitempty"`
}

// AuditField is one key/value detail of an audit event. Values are
// pre-rendered strings so the schema is stable across clients.
type AuditField struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Controller is one controller run. Its lifecycle reuses the job states:
// queued -> running -> done | failed | cancelled.
type Controller struct {
	ID         string     `json:"id"`
	Status     JobStatus  `json:"status"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Spec echoes the accepted ControllerSpec.
	Spec ControllerSpec `json:"spec"`
	// Snapshot is the control loop's live view, updated while the run
	// progresses and frozen at its final value once terminal.
	Snapshot ControllerStatus `json:"snapshot"`
	// Error is set when the run failed.
	Error *Error `json:"error,omitempty"`
}

// ControllerList is the response of GET /v1/controllers.
type ControllerList struct {
	Controllers []Controller `json:"controllers"`
}

// MaxFleetModels bounds FleetSpec.Models: beyond this the per-model
// frontier searches dominate the worker pool for too long; split larger
// catalogs across several fleets.
const MaxFleetModels = 8

// FleetModelSpec is one member of a fleet: a service spec plus its claim on
// the shared budget.
type FleetModelSpec struct {
	ServiceSpec
	// Name identifies the model fleet-wide; the catalog model name when
	// omitted. Names must be unique within the fleet (so the same catalog
	// model can appear twice only under distinct explicit names).
	Name string `json:"name,omitempty"`
	// Weight is the criticality weight; 1 when omitted. A weight of 2
	// makes the model count as twice as starved at equal satisfaction, so
	// the solver tops it up first.
	Weight float64 `json:"weight,omitempty"`
	// FloorCostPerHour reserves a minimum share of the budget for this
	// model. The floors must sum to at most the budget.
	FloorCostPerHour float64 `json:"floor_cost_per_hour,omitempty"`
	// SearchBudget overrides the fleet-wide per-model frontier search
	// budget for this model.
	SearchBudget int `json:"search_budget,omitempty"`
}

// FleetSpec asks for a multi-model shared-budget optimization: every
// model's pool is searched into a cost→Rsat frontier, a deterministic
// weighted max-min solver splits BudgetPerHour across the frontiers, and
// the most-constrained models are re-searched with warm starts. See
// docs/fleet.md.
type FleetSpec struct {
	// Models is the catalog, 1 to MaxFleetModels entries.
	Models []FleetModelSpec `json:"models"`
	// BudgetPerHour is the shared $/hour budget split across the fleet.
	// Required and positive.
	BudgetPerHour float64 `json:"budget_per_hour"`
	// SearchBudget bounds each model's frontier-extraction search; 40
	// when omitted.
	SearchBudget int `json:"search_budget,omitempty"`
	// RefineBudget bounds each warm-started refinement re-search; 12 when
	// omitted.
	RefineBudget int `json:"refine_budget,omitempty"`
	// RefineModels caps how many most-constrained models the refinement
	// pass re-searches; 2 when omitted, -1 disables refinement.
	RefineModels int `json:"refine_models,omitempty"`
	// Parallelism is the per-search prefetch parallelism, with the same
	// semantics and MaxParallelism cap as OptimizeRequest.Parallelism:
	// results are bit-identical at any setting.
	Parallelism int `json:"parallelism,omitempty"`
}

// FleetAllocation is the solver's decision for one model.
type FleetAllocation struct {
	// Name is the model; Config the chosen instance-count vector.
	Name   string `json:"name"`
	Config []int  `json:"config"`
	// CostPerHour prices the chosen configuration; ChargedPerHour is the
	// budget it consumes (the cost, or the model's floor when higher).
	CostPerHour    float64 `json:"cost_per_hour"`
	ChargedPerHour float64 `json:"charged_per_hour"`
	// QoSSatRate and MeetsQoS report the configuration against the
	// model's own QoS target.
	QoSSatRate float64 `json:"qos_sat_rate"`
	MeetsQoS   bool    `json:"meets_qos"`
	// Score is the solver's weighted normalized satisfaction — the
	// max-min objective value this model contributes.
	Score float64 `json:"score"`
}

// FleetModelStatus is the live view of one model's pipeline progress.
type FleetModelStatus struct {
	// Name is the model; Phase its pipeline position (pending, searching,
	// refining, done).
	Name  string `json:"name"`
	Phase string `json:"phase"`
	// Samples counts the model's real evaluations so far; FrontierSize
	// the extracted frontier's point count (0 while searching).
	Samples      int `json:"samples"`
	FrontierSize int `json:"frontier_size,omitempty"`
	// Allocation is the model's share of the solved plan; present once
	// the allocation stage has run.
	Allocation *FleetAllocation `json:"allocation,omitempty"`
}

// FleetStatus is the live pipeline snapshot of a fleet optimization,
// frozen at its final value once the run is terminal.
type FleetStatus struct {
	// State is the pipeline position: searching, allocating, refining, or
	// done.
	State string `json:"state"`
	// Samples is the fleet-wide count of real evaluations so far.
	Samples int `json:"samples"`
	// BudgetPerHour echoes the shared budget; TotalCostPerHour is the
	// solved plan's spend (present once allocated).
	BudgetPerHour    float64 `json:"budget_per_hour"`
	TotalCostPerHour float64 `json:"total_cost_per_hour,omitempty"`
	// Feasible reports whether even the cheapest per-model configurations
	// fit the budget — false only for hopeless budgets. Absent until the
	// allocation stage has solved a plan, so an in-flight poll never
	// reads as infeasible.
	Feasible *bool `json:"feasible,omitempty"`
	// AllMeetQoS reports whether every model's allocation meets its own
	// target (absent until a plan is solved); Binding names the model
	// pinning the fleet's worst-case QoS.
	AllMeetQoS *bool  `json:"all_meet_qos,omitempty"`
	Binding    string `json:"binding,omitempty"`
	// MinScore is the fleet's bottleneck: the smallest allocation score.
	// Present once a plan is solved (alongside Feasible/AllMeetQoS) — a
	// pointer because 0 is a legitimate bottleneck score under overload.
	MinScore *float64 `json:"min_score,omitempty"`
	// Models reports per-model progress and allocations, in catalog order.
	Models []FleetModelStatus `json:"models"`
	// Refined names the models the refinement pass re-searched.
	Refined []string `json:"refined,omitempty"`
	// Events is the pipeline's audit trail (phase transitions, solver
	// verdicts, refinement outcomes), oldest first.
	Events []AuditEvent `json:"events,omitempty"`
}

// Fleet is one asynchronous fleet optimization. Its lifecycle reuses the
// job states: queued -> running -> done | failed | cancelled.
type Fleet struct {
	ID         string     `json:"id"`
	Status     JobStatus  `json:"status"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Spec echoes the accepted FleetSpec.
	Spec FleetSpec `json:"spec"`
	// Snapshot is the pipeline's live view, updated while the run
	// progresses and frozen at its final value once terminal.
	Snapshot FleetStatus `json:"snapshot"`
	// Error is set when the run failed.
	Error *Error `json:"error,omitempty"`
}

// FleetList is the response of GET /v1/fleets.
type FleetList struct {
	Fleets []Fleet `json:"fleets"`
}

// ScenarioInfo describes one built-in load scenario, with its phase shape
// expanded for the default replay length so callers can preview the
// schedule a name stands for.
type ScenarioInfo struct {
	Name   string      `json:"name"`
	Phases []LoadPhase `json:"phases"`
}

// ScenarioList is the response of GET /v1/scenarios.
type ScenarioList struct {
	Scenarios []ScenarioInfo `json:"scenarios"`
}

// InferRequest is the body of POST /v1/infer on the ribbon-gateway data
// plane (docs/gateway.md).
type InferRequest struct {
	// Class is the criticality tier: "critical", "standard" (default), or
	// "sheddable". Sheddable requests may be dropped under queue pressure
	// when the gateway runs the criticality dispatch policy.
	Class string `json:"class,omitempty"`
	// Batch is the number of samples in this request; 1 when omitted.
	Batch int `json:"batch,omitempty"`
	// ArrivalMs optionally carries the scheduled stream-time arrival of a
	// replayed flood, so latency is measured open-loop from the schedule
	// rather than from request receipt. Omit for organic traffic.
	ArrivalMs float64 `json:"arrival_ms,omitempty"`
	// Payload is an opaque body forwarded verbatim to proxy backends.
	Payload string `json:"payload,omitempty"`
}

// InferResponse is the success body of POST /v1/infer.
type InferResponse struct {
	// Outcome is "queued" for a served request (shed and rejected requests
	// answer 503/overloaded instead).
	Outcome string `json:"outcome"`
	// LatencyMs is stream time from (scheduled) arrival to completion;
	// ServiceMs the service time of the backend call that served it.
	LatencyMs float64 `json:"latency_ms"`
	ServiceMs float64 `json:"service_ms"`
	// Instance names the instance type that served the request.
	Instance string `json:"instance"`
	// Body is the backend's response payload, when the backend produced
	// one (proxy backends).
	Body string `json:"body,omitempty"`
	// TraceID identifies the request's trace: the X-Request-Id header when
	// one was sent, otherwise a gateway-assigned ID. Also echoed in the
	// X-Request-Id response header.
	TraceID string `json:"trace_id,omitempty"`
}

// TraceSpan is one timed stage of a traced request, in stream-time
// milliseconds: admit, queue, backend, respond.
type TraceSpan struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// GatewayTrace is one sampled request timeline from the gateway data plane.
type GatewayTrace struct {
	// ID is the request's trace ID (adopted X-Request-Id or assigned); Seq
	// its ingress ordinal.
	ID  string `json:"id"`
	Seq uint64 `json:"seq"`
	// Class is the criticality tier; Outcome served, shed, rejected, or
	// failed; Instance the serving instance type (served requests).
	Class    string `json:"class,omitempty"`
	Outcome  string `json:"outcome"`
	Instance string `json:"instance,omitempty"`
	// ArrivalMs is the scheduled arrival; LatencyMs arrival-to-completion.
	ArrivalMs float64 `json:"arrival_ms"`
	LatencyMs float64 `json:"latency_ms"`
	// Spans is the stage timeline in execution order.
	Spans []TraceSpan `json:"spans"`
}

// GatewayTraces is the response of GET /v1/gateway/traces, newest first.
type GatewayTraces struct {
	Traces []GatewayTrace `json:"traces"`
}

// GatewayTierStats is one criticality tier's counters in a gateway metrics
// snapshot.
type GatewayTierStats struct {
	// Tier is "critical", "standard", or "sheddable".
	Tier string `json:"tier"`
	// Requests counts every request offered to the tier, whatever its
	// outcome (mirrors ribbon_gateway_requests_total).
	Requests uint64 `json:"requests"`
	// Completed, Shed, Rejected, and QoSMet count outcomes; QoSSatRate is
	// QoSMet over all three (shed and rejected count as violations).
	Completed  uint64  `json:"completed"`
	Shed       uint64  `json:"shed"`
	Rejected   uint64  `json:"rejected"`
	QoSMet     uint64  `json:"qos_met"`
	QoSSatRate float64 `json:"qos_sat_rate"`
	// P50Ms and P99Ms are completion-latency quantiles in stream-time
	// milliseconds (0 while the tier is empty).
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// GatewayInstance describes one live pool instance in a gateway metrics
// snapshot.
type GatewayInstance struct {
	ID   int    `json:"id"`
	Type string `json:"type"`
	// QueueDepth and Inflight are the instance's load at snapshot time;
	// Served its lifetime completions.
	QueueDepth int64  `json:"queue_depth"`
	Inflight   int64  `json:"inflight"`
	Served     uint64 `json:"served"`
	// Retiring marks an instance draining toward removal.
	Retiring bool `json:"retiring,omitempty"`
}

// GatewayMetrics is the response of GET /v1/gateway/metrics: a point-in-time
// view of the serving data plane.
type GatewayMetrics struct {
	// Model and Policy identify the served model and the dispatch policy.
	Model  string `json:"model"`
	Policy string `json:"policy"`
	// Config is the currently deployed instance-count vector.
	Config []int `json:"config"`
	// Accepted counts admitted requests; Completed, Shed, Rejected, and
	// Failed partition outcomes (Accepted exceeds their sum by the
	// requests currently in flight).
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Failed    uint64 `json:"failed"`
	// FeedDropped counts arrival samples dropped on the controller feed.
	FeedDropped uint64 `json:"feed_dropped,omitempty"`
	// QueueDepth and Inflight are pool-wide load at snapshot time.
	QueueDepth int64 `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`
	// Tiers is per-criticality accounting, critical first.
	Tiers []GatewayTierStats `json:"tiers"`
	// Instances is the live pool.
	Instances []GatewayInstance `json:"instances"`
	// Reconfigurations is the controller decision history, oldest first:
	// Controller.Reconfigurations, or empty on a static pool.
	Reconfigurations []ControllerReconfiguration `json:"reconfigurations"`
	// Events is the data plane's audit trail (drain-then-retire, chaos and
	// SLO events), oldest first. Controller verdicts are in
	// Controller.Events.
	Events []AuditEvent `json:"events,omitempty"`
	// Controller is the live control-loop status; absent when the gateway
	// serves a static pool.
	Controller *ControllerStatus `json:"controller,omitempty"`
}
