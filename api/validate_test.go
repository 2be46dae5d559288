package api

import (
	"fmt"
	"math"
	"testing"
)

func TestServiceSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ServiceSpec
		code ErrorCode // "" means valid
	}{
		{"minimal", ServiceSpec{Model: "MT-WND"}, ""},
		{"full", ServiceSpec{Model: "MT-WND", Families: []string{"g4dn", "t3"},
			QoSPercentile: 0.98, Queries: 2000, Seed: 7, RateScale: 1.5}, ""},
		{"missing model", ServiceSpec{}, ErrInvalidRequest},
		{"blank model", ServiceSpec{Model: "  "}, ErrInvalidRequest},
		{"qos too high", ServiceSpec{Model: "m", QoSPercentile: 1}, ErrInvalidRequest},
		{"qos negative", ServiceSpec{Model: "m", QoSPercentile: -0.1}, ErrInvalidRequest},
		{"negative queries", ServiceSpec{Model: "m", Queries: -1}, ErrInvalidRequest},
		{"negative rate", ServiceSpec{Model: "m", RateScale: -1}, ErrInvalidRequest},
		{"empty family", ServiceSpec{Model: "m", Families: []string{""}}, ErrInvalidRequest},
		{"empty families list", ServiceSpec{Model: "m", Families: []string{}}, ErrInvalidRequest},
		{"dup family", ServiceSpec{Model: "m", Families: []string{"g4dn", "g4dn"}}, ErrInvalidRequest},
		{"dispatch default", ServiceSpec{Model: "m", Dispatch: &DispatchSpec{}}, ""},
		{"dispatch criticality", ServiceSpec{Model: "m",
			Dispatch: &DispatchSpec{Policy: DispatchCriticality, ShedQueueLength: 8}}, ""},
		{"dispatch unknown policy", ServiceSpec{Model: "m",
			Dispatch: &DispatchSpec{Policy: "speedy"}}, ErrInvalidRequest},
		{"dispatch negative shed", ServiceSpec{Model: "m",
			Dispatch: &DispatchSpec{Policy: DispatchCriticality, ShedQueueLength: -1}}, ErrInvalidRequest},
		{"class mix", ServiceSpec{Model: "m",
			ClassMix: &ClassMix{Critical: 1, Standard: 2, Sheddable: 1}}, ""},
		{"class mix negative", ServiceSpec{Model: "m",
			ClassMix: &ClassMix{Critical: -1}}, ErrInvalidRequest},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		switch {
		case tc.code == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.code != "" && err == nil:
			t.Errorf("%s: expected %s", tc.name, tc.code)
		case tc.code != "" && err.Code != tc.code:
			t.Errorf("%s: code %s, want %s", tc.name, err.Code, tc.code)
		}
	}
}

func TestEvaluateRequestValidate(t *testing.T) {
	ok := EvaluateRequest{ServiceSpec: ServiceSpec{Model: "MT-WND"}, Config: []int{1, 0, 2}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	missing := EvaluateRequest{ServiceSpec: ServiceSpec{Model: "MT-WND"}}
	if err := missing.Validate(); err == nil || err.Code != ErrInvalidConfig {
		t.Fatalf("missing config: %v", err)
	}
	negative := EvaluateRequest{ServiceSpec: ServiceSpec{Model: "MT-WND"}, Config: []int{1, -2}}
	if err := negative.Validate(); err == nil || err.Code != ErrInvalidConfig {
		t.Fatalf("negative config: %v", err)
	}
}

func TestOptimizeRequestValidate(t *testing.T) {
	if err := (OptimizeRequest{ServiceSpec: ServiceSpec{Model: "MT-WND"}}).Validate(); err != nil {
		t.Fatalf("zero budget means default: %v", err)
	}
	err := (OptimizeRequest{ServiceSpec: ServiceSpec{Model: "MT-WND"}, Budget: -1}).Validate()
	if err == nil || err.Code != ErrInvalidBudget {
		t.Fatalf("negative budget: %v", err)
	}
	if err := (OptimizeRequest{ServiceSpec: ServiceSpec{Model: "MT-WND"}, Parallelism: 4}).Validate(); err != nil {
		t.Fatalf("parallelism 4 must be valid: %v", err)
	}
	for _, p := range []int{-1, MaxParallelism + 1} {
		err := (OptimizeRequest{ServiceSpec: ServiceSpec{Model: "MT-WND"}, Parallelism: p}).Validate()
		if err == nil || err.Code != ErrInvalidRequest {
			t.Fatalf("parallelism %d: %v", p, err)
		}
	}
}

func TestControllerSpecValidate(t *testing.T) {
	base := ServiceSpec{Model: "MT-WND"}
	cases := []struct {
		name string
		spec ControllerSpec
		code ErrorCode // "" means valid
	}{
		{"minimal", ControllerSpec{ServiceSpec: base}, ""},
		{"named scenario", ControllerSpec{ServiceSpec: base, Scenario: "diurnal", TotalQueries: 30_000}, ""},
		{"explicit phases", ControllerSpec{ServiceSpec: base,
			Phases: []LoadPhase{{Queries: 5000, RateScale: 1}, {Queries: 5000, RateScale: 2}}}, ""},
		{"tuned", ControllerSpec{ServiceSpec: base, WindowMs: 5000, TickMs: 500,
			RelThreshold: 0.2, DwellMs: 2000, AdaptBudget: 8, MigrationSetupHours: 0.1}, ""},
		{"bad service", ControllerSpec{}, ErrInvalidRequest},
		{"scenario and phases", ControllerSpec{ServiceSpec: base, Scenario: "spike",
			Phases: []LoadPhase{{Queries: 1, RateScale: 1}}}, ErrInvalidRequest},
		{"empty phases", ControllerSpec{ServiceSpec: base, Phases: []LoadPhase{}}, ErrInvalidRequest},
		{"zero-query phase", ControllerSpec{ServiceSpec: base,
			Phases: []LoadPhase{{Queries: 0, RateScale: 1}}}, ErrInvalidRequest},
		{"negative-rate phase", ControllerSpec{ServiceSpec: base,
			Phases: []LoadPhase{{Queries: 10, RateScale: -1}}}, ErrInvalidRequest},
		{"replay too long", ControllerSpec{ServiceSpec: base,
			TotalQueries: MaxControllerQueries + 1}, ErrInvalidRequest},
		{"phases too long", ControllerSpec{ServiceSpec: base,
			Phases: []LoadPhase{{Queries: MaxControllerQueries, RateScale: 1}, {Queries: 1, RateScale: 1}}}, ErrInvalidRequest},
		{"negative initial budget", ControllerSpec{ServiceSpec: base, InitialBudget: -1}, ErrInvalidBudget},
		{"negative adapt budget", ControllerSpec{ServiceSpec: base, AdaptBudget: -1}, ErrInvalidBudget},
		{"negative window", ControllerSpec{ServiceSpec: base, WindowMs: -1}, ErrInvalidRequest},
		{"tiny tick", ControllerSpec{ServiceSpec: base, TickMs: 1e-6}, ErrInvalidRequest},
		{"tiny window", ControllerSpec{ServiceSpec: base, WindowMs: 1}, ErrInvalidRequest},
		{"threshold too high", ControllerSpec{ServiceSpec: base, RelThreshold: 1}, ErrInvalidRequest},
		{"negative migration", ControllerSpec{ServiceSpec: base, MigrationTeardownHours: -0.1}, ErrInvalidRequest},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		switch {
		case tc.code == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.code != "" && err == nil:
			t.Errorf("%s: expected %s", tc.name, tc.code)
		case tc.code != "" && err.Code != tc.code:
			t.Errorf("%s: code %s, want %s", tc.name, err.Code, tc.code)
		}
	}
}

func TestJobStatusTerminal(t *testing.T) {
	for st, want := range map[JobStatus]bool{
		JobQueued: false, JobRunning: false,
		JobDone: true, JobFailed: true, JobCancelled: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v", st, !want)
		}
	}
}

func TestErrorFormatting(t *testing.T) {
	e := &Error{Code: ErrInvalidBudget, Message: "budget -1 must be positive"}
	if got := e.Error(); got != "invalid_budget: budget -1 must be positive" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestFleetSpecValidate(t *testing.T) {
	model := func(name string) FleetModelSpec {
		return FleetModelSpec{ServiceSpec: ServiceSpec{Model: "MT-WND"}, Name: name}
	}
	valid := FleetSpec{Models: []FleetModelSpec{model(""), model("wnd-2")}, BudgetPerHour: 5}

	mut := func(f func(*FleetSpec)) FleetSpec {
		s := valid
		s.Models = append([]FleetModelSpec(nil), valid.Models...)
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec FleetSpec
		code ErrorCode
	}{
		{"valid", valid, ""},
		{"no models", mut(func(s *FleetSpec) { s.Models = nil }), ErrInvalidRequest},
		{"too many models", mut(func(s *FleetSpec) {
			for i := 0; i <= MaxFleetModels; i++ {
				s.Models = append(s.Models, model(fmt.Sprintf("m%d", i)))
			}
		}), ErrInvalidRequest},
		{"zero budget", mut(func(s *FleetSpec) { s.BudgetPerHour = 0 }), ErrInvalidBudget},
		{"nan budget", mut(func(s *FleetSpec) { s.BudgetPerHour = math.NaN() }), ErrInvalidBudget},
		{"negative search budget", mut(func(s *FleetSpec) { s.SearchBudget = -1 }), ErrInvalidBudget},
		{"negative refine budget", mut(func(s *FleetSpec) { s.RefineBudget = -1 }), ErrInvalidBudget},
		{"bad parallelism", mut(func(s *FleetSpec) { s.Parallelism = MaxParallelism + 1 }), ErrInvalidRequest},
		{"bad service spec", mut(func(s *FleetSpec) { s.Models[0].Model = "" }), ErrInvalidRequest},
		{"duplicate default names", mut(func(s *FleetSpec) { s.Models[1].Name = "" }), ErrInvalidRequest},
		{"negative weight", mut(func(s *FleetSpec) { s.Models[0].Weight = -1 }), ErrInvalidRequest},
		{"negative floor", mut(func(s *FleetSpec) { s.Models[0].FloorCostPerHour = -0.1 }), ErrInvalidRequest},
		{"floors exceed budget", mut(func(s *FleetSpec) {
			s.Models[0].FloorCostPerHour = 3
			s.Models[1].FloorCostPerHour = 3
		}), ErrInvalidBudget},
		{"negative model search budget", mut(func(s *FleetSpec) { s.Models[0].SearchBudget = -1 }), ErrInvalidBudget},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		switch {
		case tc.code == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.code != "" && err == nil:
			t.Errorf("%s: expected %s", tc.name, tc.code)
		case tc.code != "" && err.Code != tc.code:
			t.Errorf("%s: code %s, want %s (%s)", tc.name, err.Code, tc.code, err.Message)
		}
	}
}
