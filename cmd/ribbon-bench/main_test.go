package main

import (
	"math"
	"slices"
	"testing"

	"ribbon/internal/experiments"
)

func TestRunDispatchesStaticTables(t *testing.T) {
	s := experiments.Setup{Seed: 1, Queries: 500, Budget: 5}
	for id, wantRows := range map[string]int{"table1": 5, "table2": 8, "table3": 5, "fig3": 12} {
		tables, err := run(id, s, experiments.ModelNames(), 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) != 1 || len(tables[0].Rows) != wantRows {
			t.Fatalf("%s: got %d tables, rows %d", id, len(tables), len(tables[0].Rows))
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if _, err := run("fig99", experiments.Setup{}, nil, 1); err == nil {
		t.Fatalf("accepted unknown experiment")
	}
}

func TestRunFig7Fast(t *testing.T) {
	tables, err := run("fig7", experiments.Setup{Seed: 1, Queries: 1500, Budget: 5}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) < 2 {
		t.Fatalf("fig7 rows = %d", len(tables[0].Rows))
	}
}

// The -perf-smoke verdict: it passes exactly at each floor, fails just
// below either one, and fails when an entry it gates is missing.
func TestPerfSmokeFloors(t *testing.T) {
	report := func(deploy, sim float64) experiments.PerfReport {
		return experiments.PerfReport{Entries: []experiments.PerfEntry{
			{Name: "search/sim/parallelism=1"},
			{Name: "search/sim/parallelism=4", SpeedupVsP1: sim},
			{Name: "search/deploy25ms/parallelism=1"},
			{Name: "search/deploy25ms/parallelism=4", SpeedupVsP1: deploy},
		}}
	}
	below := func(f float64) float64 { return math.Nextafter(f, 0) }
	drop := func(r experiments.PerfReport, name string) experiments.PerfReport {
		r.Entries = slices.DeleteFunc(slices.Clone(r.Entries), func(e experiments.PerfEntry) bool { return e.Name == name })
		return r
	}
	atFloors := report(perfSmokeDeployFloor, perfSmokeSimFloor)
	cases := []struct {
		name   string
		report experiments.PerfReport
		pass   bool
	}{
		{"at both floors", atFloors, true},
		{"well above", report(2.3, 1.2), true},
		{"deploy just below", report(below(perfSmokeDeployFloor), perfSmokeSimFloor), false},
		{"sim just below", report(perfSmokeDeployFloor, below(perfSmokeSimFloor)), false},
		{"deploy entry missing", drop(atFloors, "search/deploy25ms/parallelism=4"), false},
		{"sim entry missing", drop(atFloors, "search/sim/parallelism=4"), false},
		{"empty report", experiments.PerfReport{}, false},
	}
	for _, c := range cases {
		if err := perfSmoke(c.report); (err == nil) != c.pass {
			t.Errorf("%s: perfSmoke = %v, want pass=%v", c.name, err, c.pass)
		}
	}
}
