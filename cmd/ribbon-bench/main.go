// Command ribbon-bench regenerates the tables and figures of the Ribbon
// paper's evaluation (Sec. 5). Each experiment prints the rows/series the
// paper reports; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Usage:
//
//	ribbon-bench [flags] [experiment ...]
//
// With no arguments every experiment runs in paper order. Experiments:
// table1 table2 table3 fig3 fig4 fig5 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 fig15 fig16, plus four beyond-paper experiments: the
// "dispatch" policy comparison (Rsat / tail / shed rate per dispatch policy
// at 1x/2x/4x load; see docs/dispatch.md), the "controller" continuous
// pool-controller replay (spike/diurnal/ramp load schedules with every
// reconfiguration decision tabulated; see docs/controller.md), the "fleet"
// shared-budget comparison (fleet allocation vs equal split vs per-model
// independent optima at 1x/2x load; see docs/fleet.md), the "perf"
// search-core hot-path measurement, which additionally writes a
// machine-readable report to -perf-out (BENCH_14.json by default; see
// docs/performance.md) and with -perf-smoke gates the exit status on the
// parallel search's speedup over the same search at parallelism 1, and the
// "gateway" live data-plane flood, which stands up a real ribbon-gateway
// (simulated backend) and drives seeded open-loop floods through it at
// 1x/2x/4x the provisioned load, reporting sustained req/s and per-tier
// p50/p99 with the shed/reject split, written to -gateway-out (BENCH_6.json
// by default; see docs/gateway.md). With
// -gateway-url the flood instead targets an already-running gateway over
// HTTP, and -gateway-smoke turns the run into a CI assertion: at least one
// request served, zero critical-tier sheds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"ribbon/internal/experiments"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 42, "master random seed (all experiments are deterministic per seed)")
		queries   = flag.Int("queries", 4000, "queries per configuration evaluation")
		budget    = flag.Int("budget", 120, "evaluation budget per search strategy")
		model     = flag.String("model", "", "restrict per-model experiments to one model (default: all five)")
		types     = flag.Int("fig8-types", 4, "maximum pool cardinality for fig8 (5 is slow: ~minutes)")
		perfOut   = flag.String("perf-out", "BENCH_14.json", "file the perf experiment writes its machine-readable report to (empty disables)")
		perfSmoke = flag.Bool("perf-smoke", false, "turn the perf experiment into a CI gate: the parallelism=4 searches must reach each regime's floor speedup over parallelism=1")

		chaosOut   = flag.String("chaos-out", "BENCH_8.json", "file the chaos experiment writes its machine-readable report to (empty disables)")
		chaosSmoke = flag.Bool("chaos-smoke", false, "turn the chaos experiment into a CI gate: capacity responses within the dwell window, zero dropped admitted requests, byte-identical second replay")

		gatewayOut   = flag.String("gateway-out", "BENCH_6.json", "file the gateway experiment writes its machine-readable report to (empty disables)")
		gatewayURL   = flag.String("gateway-url", "", "flood a running ribbon-gateway at this base URL instead of an in-process one")
		gatewaySmoke = flag.Bool("gateway-smoke", false, "with -gateway-url: fail unless at least one request was served and zero critical-tier requests were shed")
		gatewayReqs  = flag.Int("gateway-requests", 2000, "with -gateway-url: number of requests to send")
		gatewayGate  = flag.Bool("gateway-gate", false, "gate the in-process flood against -gateway-baseline: sustained qps and critical p99 must stay within the regression thresholds")
		gatewayBase  = flag.String("gateway-baseline", "BENCH_6.json", "committed baseline report the -gateway-gate comparison reads")
	)
	flag.Parse()

	setup := experiments.Setup{Seed: *seed, Queries: *queries, Budget: *budget}
	modelList := experiments.ModelNames()
	if *model != "" {
		modelList = []string{*model}
	}

	all := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"dispatch", "controller", "fleet", "perf", "gateway", "chaos"}
	want := flag.Args()
	if len(want) == 0 {
		want = all
	}

	for _, id := range want {
		start := time.Now()
		if id == "perf" {
			if err := runPerf(setup, *perfOut, *perfSmoke); err != nil {
				fmt.Fprintf(os.Stderr, "ribbon-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("[perf completed in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		if id == "chaos" {
			if err := runChaos(setup, *chaosOut, *chaosSmoke); err != nil {
				fmt.Fprintf(os.Stderr, "ribbon-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("[chaos completed in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		if id == "gateway" {
			err := runGateway(setup, *gatewayOut, *gatewayURL, *gatewaySmoke, *gatewayReqs,
				*gatewayGate, *gatewayBase)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ribbon-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("[gateway completed in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		tables, err := run(id, setup, modelList, *types)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ribbon-bench: %v\n", err)
			os.Exit(2)
		}
		for _, t := range tables {
			if err := t.Fprint(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "ribbon-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}

func run(id string, s experiments.Setup, modelList []string, fig8Types int) ([]experiments.Table, error) {
	switch id {
	case "table1":
		return []experiments.Table{experiments.Table1()}, nil
	case "table2":
		return []experiments.Table{experiments.Table2()}, nil
	case "table3":
		return []experiments.Table{experiments.Table3()}, nil
	case "fig3":
		return []experiments.Table{experiments.Fig3()}, nil
	case "fig4":
		return []experiments.Table{experiments.Fig4(s)}, nil
	case "fig5":
		return []experiments.Table{experiments.Fig5(s)}, nil
	case "fig7":
		return []experiments.Table{experiments.Fig7(s)}, nil
	case "fig8":
		var out []experiments.Table
		for _, m := range modelList {
			out = append(out, experiments.Fig8(s, m, fig8Types))
		}
		return out, nil
	case "fig9":
		return []experiments.Table{experiments.Fig9(s)}, nil
	case "fig10":
		return []experiments.Table{experiments.Fig10(s, modelList)}, nil
	case "fig11":
		return []experiments.Table{experiments.Fig11(s)}, nil
	case "fig12":
		return []experiments.Table{experiments.Fig12(s)}, nil
	case "fig13":
		return []experiments.Table{experiments.Fig13(s, modelList)}, nil
	case "fig14":
		return []experiments.Table{experiments.Fig14(s, modelList)}, nil
	case "fig15":
		return []experiments.Table{experiments.Fig15(s)}, nil
	case "fig16":
		var out []experiments.Table
		for _, m := range modelList {
			out = append(out, experiments.Fig16(s, m))
		}
		return out, nil
	case "dispatch":
		var out []experiments.Table
		for _, m := range modelList {
			out = append(out, experiments.DispatchComparison(s, m, nil))
		}
		return out, nil
	case "fleet":
		return experiments.FleetComparison(s, nil), nil
	case "controller":
		var out []experiments.Table
		for _, m := range modelList {
			for _, sc := range experiments.ControllerScenarios() {
				out = append(out, experiments.ControllerAdaptation(s, m, sc))
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q (known: %s)", id,
			strings.Join([]string{"table1..3", "fig3..fig5", "fig7..fig16", "dispatch", "controller", "fleet", "perf", "gateway"}, ", "))
	}
}

// The -perf-smoke floors on the parallelism=4 search's speedup over the same
// search at parallelism=1 (min against min), per regime. With 25 ms deploy
// windows prefetch hits hide whole windows, so P4 must clear 1.5x. On the
// simulator an evaluation costs about a millisecond and a 2-core host has
// little to overlap, so P4 must only not lose more than 20%; prefetching the
// liar chain there runs at about 0.5x and fails.
const (
	perfSmokeDeployFloor = 1.5
	perfSmokeSimFloor    = 0.8
)

// perfSmoke is the -perf-smoke verdict over a perf report: nil when every
// regime's parallelism=4 entry reaches its floor.
func perfSmoke(report experiments.PerfReport) error {
	for _, g := range []struct {
		regime string
		floor  float64
	}{{"deploy25ms", perfSmokeDeployFloor}, {"sim", perfSmokeSimFloor}} {
		name := "search/" + g.regime + "/parallelism=4"
		i := slices.IndexFunc(report.Entries, func(e experiments.PerfEntry) bool { return e.Name == name })
		if i < 0 {
			return fmt.Errorf("perf-smoke: entry %q missing from the report", name)
		}
		if sp := report.Entries[i].SpeedupVsP1; sp < g.floor {
			return fmt.Errorf("perf-smoke: %s speedup %.2fx over parallelism=1 below the %.1fx floor",
				name, sp, g.floor)
		}
	}
	return nil
}

// runPerf measures the search-core hot paths, prints the table, writes the
// machine-readable report, and — with smoke set — turns the parallel-search
// speedup floors into the exit status.
func runPerf(s experiments.Setup, out string, smoke bool) error {
	table, report := experiments.Perf(s)
	if err := table.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("perf report written to %s\n", out)
	}
	if !smoke {
		return nil
	}
	if err := perfSmoke(report); err != nil {
		return err
	}
	fmt.Println("perf-smoke: parallel search speedup gates passed")
	return nil
}

// runChaos replays the hostile-cloud resilience study, prints the table,
// writes the machine-readable report, and — with smoke set — turns the
// resilience contract into the exit status.
func runChaos(s experiments.Setup, out string, smoke bool) error {
	table, report := experiments.ChaosResilience(s, experiments.ChaosOptions{})
	if err := table.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("chaos report written to %s\n", out)
	}
	if !smoke {
		return nil
	}
	if !report.ReplayIdentical {
		return fmt.Errorf("chaos-smoke: second storm replay diverged from the first")
	}
	if report.Live.Dropped != 0 || report.Live.Failed != 0 {
		return fmt.Errorf("chaos-smoke: live plane dropped %d / failed %d admitted requests",
			report.Live.Dropped, report.Live.Failed)
	}
	for _, run := range report.Runs {
		if run.CapacityResponses == 0 {
			return fmt.Errorf("chaos-smoke: %gx %s run saw %d capacity events but responded to none",
				run.Load, run.Pricing, run.CapacityEvents)
		}
		if !run.WithinDwell {
			return fmt.Errorf("chaos-smoke: %gx %s run took %.0fms to respond (dwell window %.0fms)",
				run.Load, run.Pricing, run.MaxResponseMs, 1000.0)
		}
		if !run.FinalMeetsQoS {
			return fmt.Errorf("chaos-smoke: %gx %s run ends with a QoS-violating pool", run.Load, run.Pricing)
		}
	}
	// Self-healing gates: the straggler leg with SLO triggers on must close
	// the loop — alert, applied re-search, recovery — measurably faster
	// than the triggers-off baseline, and replay deterministically.
	sh := report.SLO
	if !sh.ReplayIdentical {
		return fmt.Errorf("chaos-smoke: slo self-healing replay diverged")
	}
	if sh.On.AlertAtMs == 0 || sh.Off.AlertAtMs == 0 {
		return fmt.Errorf("chaos-smoke: straggler injection raised no page alert (on %.0fms / off %.0fms)",
			sh.On.AlertAtMs, sh.Off.AlertAtMs)
	}
	if sh.On.Applied == 0 {
		return fmt.Errorf("chaos-smoke: slo trigger never applied a re-search")
	}
	if sh.Off.Responses != 0 {
		return fmt.Errorf("chaos-smoke: triggers-off leg responded on slo %d times", sh.Off.Responses)
	}
	if sh.On.RecoveryMs >= sh.Off.RecoveryMs {
		return fmt.Errorf("chaos-smoke: slo triggers on recovered in %.0fms, not faster than off (%.0fms)",
			sh.On.RecoveryMs, sh.Off.RecoveryMs)
	}
	// The paper-premise gate: riding the spot market through the storm must
	// end up cheaper than the on-demand-only baseline at the same load.
	for _, spot := range report.Runs {
		if spot.Pricing != "spot" {
			continue
		}
		for _, od := range report.Runs {
			if od.Pricing == "on-demand" && od.Load == spot.Load && spot.AccruedCost >= od.AccruedCost {
				return fmt.Errorf("chaos-smoke: %gx spot run accrued $%.4f, not cheaper than on-demand $%.4f",
					spot.Load, spot.AccruedCost, od.AccruedCost)
			}
		}
	}
	fmt.Println("chaos-smoke: all resilience gates passed")
	return nil
}

// runGateway drives the live data-plane flood — in-process by default, or
// against a running gateway when url is set — prints the table, and writes
// the machine-readable report. With smoke set, a remote run's assertions
// (some request served, zero critical sheds) become the exit status. With
// gate set, an in-process flood is additionally compared against the
// committed baseline report, turning throughput or tail-latency regressions
// into the exit status.
func runGateway(s experiments.Setup, out, url string, smoke bool, requests int,
	gate bool, baseline string) error {
	var (
		table  experiments.Table
		report experiments.GatewayReport
	)
	if url != "" {
		var err error
		table, report, err = experiments.GatewayRemoteFlood(s, experiments.GatewayOptions{}, url, requests, 0)
		if err != nil && smoke {
			table.Fprint(os.Stdout)
			return err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ribbon-bench: gateway (non-fatal without -gateway-smoke): %v\n", err)
		}
	} else {
		table, report = experiments.GatewayFlood(s, experiments.GatewayOptions{})
	}
	if err := table.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if gate {
		if url != "" {
			return fmt.Errorf("gateway-gate: only gates the in-process flood (drop -gateway-url)")
		}
		if err := gateGateway(report, baseline); err != nil {
			return err
		}
	}
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("gateway report written to %s\n", out)
	return nil
}

// Regression thresholds for -gateway-gate: sustained throughput at every
// overload must hold at least this fraction of the committed baseline, and
// the critical tier's p99 must not inflate past this multiple. The margins
// are wide enough to absorb shared-runner noise (the flood sleeps real
// wall-clock time under -time-scale compression) while still failing on any
// structural data-plane regression — a broken queue, a priority inversion,
// a shedding policy that starts dropping critical work.
const (
	gatewayGateQPSFloor = 0.6
	gatewayGateP99Ceil  = 2.5
)

// gateGateway compares a fresh in-process flood against the committed
// baseline report, row-matched by overload multiplier.
func gateGateway(report experiments.GatewayReport, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("gateway-gate: read baseline: %w", err)
	}
	var base experiments.GatewayReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("gateway-gate: decode baseline %s: %w", baselinePath, err)
	}
	if len(base.Rows) == 0 {
		return fmt.Errorf("gateway-gate: baseline %s has no flood rows", baselinePath)
	}
	for _, b := range base.Rows {
		var cur *experiments.GatewayRow
		for i := range report.Rows {
			if report.Rows[i].Overload == b.Overload {
				cur = &report.Rows[i]
				break
			}
		}
		if cur == nil {
			return fmt.Errorf("gateway-gate: fresh flood has no %gx overload row", b.Overload)
		}
		if cur.SustainedQPS < gatewayGateQPSFloor*b.SustainedQPS {
			return fmt.Errorf("gateway-gate: %gx sustained %.1f qps below %.0f%% of baseline %.1f",
				b.Overload, cur.SustainedQPS, gatewayGateQPSFloor*100, b.SustainedQPS)
		}
		bc, cc := criticalTier(b.Tiers), criticalTier(cur.Tiers)
		if bc == nil {
			return fmt.Errorf("gateway-gate: baseline %gx row lacks a critical tier", b.Overload)
		}
		if cc == nil {
			return fmt.Errorf("gateway-gate: fresh %gx row lacks a critical tier", b.Overload)
		}
		if cc.P99Ms > gatewayGateP99Ceil*bc.P99Ms {
			return fmt.Errorf("gateway-gate: %gx critical p99 %.1fms above %.1fx baseline %.1fms",
				b.Overload, cc.P99Ms, gatewayGateP99Ceil, bc.P99Ms)
		}
	}
	fmt.Printf("gateway-gate: flood within regression thresholds of %s\n", baselinePath)
	return nil
}

// criticalTier picks the critical tier's row, nil when absent.
func criticalTier(tiers []experiments.GatewayTierRow) *experiments.GatewayTierRow {
	for i := range tiers {
		if tiers[i].Tier == "critical" {
			return &tiers[i]
		}
	}
	return nil
}
