package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ribbon/api"
	"ribbon/internal/core"
	"ribbon/internal/dispatch"
	"ribbon/internal/gateway"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// GatewayOptions parameterizes the live data-plane flood.
type GatewayOptions struct {
	// Model is the served model; "CANDLE" when empty.
	Model string
	// BaseScale is the provisioned load relative to the model's base rate;
	// 0.5 when zero. The pool is sized for this scale and then flooded at
	// Overloads multiples of it.
	BaseScale float64
	// Overloads are the flood multipliers relative to BaseScale;
	// {1, 2, 4} when nil.
	Overloads []float64
	// DurationS is the stream-time length of each flood in seconds;
	// 4 when zero.
	DurationS float64
	// TimeScale compresses stream time into wall time; 0.5 when zero (a
	// 4 s flood takes 2 s of wall clock). The default is deliberately mild:
	// heavier compression multiplies the wall request rate, and once the
	// host's cores saturate it is the machine, not the pool, setting the
	// reported tails.
	TimeScale float64
	// Budget bounds the one-off pool search; 24 when zero.
	Budget int
}

func (o GatewayOptions) withDefaults() GatewayOptions {
	if o.Model == "" {
		o.Model = "CANDLE"
	}
	if o.BaseScale == 0 {
		o.BaseScale = 0.5
	}
	if o.Overloads == nil {
		o.Overloads = []float64{1, 2, 4}
	}
	if o.DurationS == 0 {
		o.DurationS = 4
	}
	if o.TimeScale == 0 {
		o.TimeScale = 0.5
	}
	if o.Budget == 0 {
		o.Budget = 24
	}
	return o
}

// GatewayTierRow is one criticality tier's outcome under one overload.
type GatewayTierRow struct {
	Tier      string  `json:"tier"`
	Completed uint64  `json:"completed"`
	Shed      uint64  `json:"shed"`
	Rejected  uint64  `json:"rejected"`
	Rsat      float64 `json:"rsat"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// GatewayRow is one overload level of the flood.
type GatewayRow struct {
	// Overload is the flood multiplier relative to the provisioned scale;
	// OfferedQPS the resulting stream-time arrival rate.
	Overload   float64 `json:"overload"`
	OfferedQPS float64 `json:"offered_qps"`
	// SustainedQPS is completions per stream-time second — what the pool
	// actually served while the flood ran.
	SustainedQPS float64          `json:"sustained_qps"`
	Offered      uint64           `json:"offered"`
	Completed    uint64           `json:"completed"`
	Shed         uint64           `json:"shed"`
	Rejected     uint64           `json:"rejected"`
	Tiers        []GatewayTierRow `json:"tiers"`
}

// GatewayReport is the machine-readable flood result (BENCH_6.json).
type GatewayReport struct {
	Model     string       `json:"model"`
	Policy    string       `json:"policy"`
	Config    []int        `json:"config"`
	BaseScale float64      `json:"base_scale"`
	TimeScale float64      `json:"time_scale"`
	Seed      uint64       `json:"seed"`
	Rows      []GatewayRow `json:"rows"`
}

// GatewayFlood is the beyond-paper live data-plane experiment: size a pool
// for the base load, stand up a real gateway (simulated backend, criticality
// dispatch), and drive seeded open-loop floods at 1x/2x/4x the provisioned
// load through the actual ingest path — instance FIFOs, the shared priority
// queue, shedding, metrics. Reported per overload: sustained req/s against
// offered, and per-tier p50/p99 with the shed/reject split. The invariant on
// display: under any overload only the Sheddable tier is ever shed.
func GatewayFlood(s Setup, o GatewayOptions) (Table, GatewayReport) {
	s = s.withDefaults()
	o = o.withDefaults()
	spec := s.spec(o.Model)

	// One pool for the whole flood: what the optimizer picks for the base
	// load, held static so the overload response is the data plane's own.
	simOpts := serving.SimOptions{Seed: s.Seed, RateScale: o.BaseScale}
	ev := s.evaluator(spec, simOpts)
	bounds, err := core.DiscoverBounds(ev, 24)
	if err != nil {
		panic(err)
	}
	sr := core.NewSearcher(ev, bounds, s.Seed, core.Options{}).Run(o.Budget)
	if !sr.Found {
		panic(fmt.Sprintf("gateway flood: no QoS-meeting pool for %s at %.2gx", o.Model, o.BaseScale))
	}
	cfg := sr.BestConfig

	report := GatewayReport{
		Model:     o.Model,
		Policy:    string(dispatch.KindCriticality),
		Config:    cfg,
		BaseScale: o.BaseScale,
		TimeScale: o.TimeScale,
		Seed:      s.Seed,
	}

	for _, over := range o.Overloads {
		report.Rows = append(report.Rows, floodOnce(s, o, spec, cfg, over))
	}

	t := Table{
		ID: "gateway",
		Title: fmt.Sprintf("%s live data-plane flood: pool %s sized for %.2gx, criticality dispatch, time scale %.2g",
			o.Model, cfg.Key(), o.BaseScale, o.TimeScale),
		Header: []string{"overload", "tier", "offered qps", "sustained qps", "completed", "shed", "rejected", "Rsat", "p50 ms", "p99 ms"},
	}
	for _, row := range report.Rows {
		for i, tier := range row.Tiers {
			lead1, lead2 := "", ""
			if i == 0 {
				lead1 = fmt.Sprintf("%.2gx", row.Overload)
				lead2 = fmt.Sprintf("%.0f", row.OfferedQPS)
			}
			sustained := ""
			if i == 0 {
				sustained = fmt.Sprintf("%.0f", row.SustainedQPS)
			}
			t.AddRow(lead1, tier.Tier, lead2, sustained,
				fmt.Sprintf("%d", tier.Completed),
				fmt.Sprintf("%d", tier.Shed),
				fmt.Sprintf("%d", tier.Rejected),
				fmt.Sprintf("%.3f", tier.Rsat),
				fmt.Sprintf("%.1f", tier.P50Ms),
				fmt.Sprintf("%.1f", tier.P99Ms))
		}
	}
	return t, report
}

// floodOnce drives one overload level through a fresh gateway and collapses
// the metrics snapshot into a report row.
func floodOnce(s Setup, o GatewayOptions, spec serving.PoolSpec, cfg serving.Config, over float64) GatewayRow {
	scale := o.BaseScale * over
	offeredQPS := spec.Model.ArrivalRateQPS * scale
	queries := int(offeredQPS * o.DurationS)
	if queries < 100 {
		queries = 100
	}
	stream := workload.GenerateSchedule(spec.Model, s.Seed+11, workload.HeavyTailLogNormalBatch,
		[]workload.Phase{{Queries: queries, RateScale: scale}})
	stream.AssignClasses(s.Seed+11, workload.ClassMix{Critical: 1, Standard: 2, Sheddable: 1})

	g, err := gateway.New(context.Background(), gateway.Options{
		Spec:      spec,
		Backend:   gateway.NewSimBackend(spec.Model, o.TimeScale, s.Seed),
		Dispatch:  dispatch.Spec{Kind: dispatch.KindCriticality},
		Initial:   cfg,
		Seed:      s.Seed,
		TimeScale: o.TimeScale,
	})
	if err != nil {
		panic(err)
	}
	defer g.Close()

	ch := make(chan workload.Query, 4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for q := range ch {
			g.IngestAsync(q.ArrivalMs, q.Batch, q.Class)
		}
	}()
	if err := stream.EmitScaled(context.Background(), ch, o.TimeScale); err != nil {
		panic(err)
	}
	close(ch)
	<-done

	// Quiesce: let the queues drain so completions and latencies are final.
	deadline := time.Now().Add(30 * time.Second)
	var snap gateway.Snapshot
	for {
		snap = g.Metrics()
		if (snap.Completed+snap.Failed >= snap.Accepted && snap.QueueDepth == 0 && snap.Inflight == 0) ||
			time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	row := GatewayRow{
		Overload:     over,
		OfferedQPS:   offeredQPS,
		SustainedQPS: float64(snap.Completed) / stream.Duration() * 1000,
		Offered:      uint64(len(stream.Queries)),
		Completed:    snap.Completed,
		Shed:         snap.Shed,
		Rejected:     snap.Rejected,
	}
	for r := dispatch.NumRanks - 1; r >= 0; r-- { // critical first
		tier := snap.Tiers[r]
		row.Tiers = append(row.Tiers, GatewayTierRow{
			Tier:      tier.Tier,
			Completed: tier.Completed,
			Shed:      tier.Shed,
			Rejected:  tier.Rejected,
			Rsat:      tier.Rsat(),
			P50Ms:     tier.P50Ms,
			P99Ms:     tier.P99Ms,
		})
	}
	return row
}

// GatewayRemoteFlood drives a short smoke flood against a running
// ribbon-gateway over HTTP — the CI path: POST /v1/infer from a small worker
// pool, then read GET /v1/gateway/metrics and tabulate the server-side tier
// stats. The returned report carries whatever the remote plane measured.
func GatewayRemoteFlood(s Setup, o GatewayOptions, baseURL string, requests, workers int) (Table, GatewayReport, error) {
	s = s.withDefaults()
	o = o.withDefaults()
	if requests <= 0 {
		requests = 2000
	}
	if workers <= 0 {
		workers = 16
	}
	m := s.spec(o.Model).Model
	stream := workload.GenerateSchedule(m, s.Seed+11, workload.HeavyTailLogNormalBatch,
		[]workload.Phase{{Queries: requests, RateScale: o.BaseScale}})
	stream.AssignClasses(s.Seed+11, workload.ClassMix{Critical: 1, Standard: 2, Sheddable: 1})

	var ok2xx, overloaded, failed atomic.Uint64
	jobs := make(chan workload.Query, workers)
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 30 * time.Second}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range jobs {
				body, _ := json.Marshal(api.InferRequest{Class: string(q.Class), Batch: q.Batch})
				resp, err := client.Post(baseURL+"/v1/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode >= 200 && resp.StatusCode < 300:
					ok2xx.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					overloaded.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	for _, q := range stream.Queries {
		jobs <- q
	}
	close(jobs)
	wg.Wait()

	resp, err := client.Get(baseURL + "/v1/gateway/metrics")
	if err != nil {
		return Table{}, GatewayReport{}, fmt.Errorf("gateway metrics: %w", err)
	}
	defer resp.Body.Close()
	var dto api.GatewayMetrics
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		return Table{}, GatewayReport{}, fmt.Errorf("gateway metrics: %w", err)
	}

	report := GatewayReport{
		Model:  dto.Model,
		Policy: dto.Policy,
		Config: dto.Config,
		Seed:   s.Seed,
	}
	row := GatewayRow{
		Overload:  1,
		Offered:   uint64(requests),
		Completed: dto.Completed,
		Shed:      dto.Shed,
		Rejected:  dto.Rejected,
	}
	t := Table{
		ID:     "gateway",
		Title:  fmt.Sprintf("remote flood of %s: %d requests, %d ok, %d overloaded, %d failed", baseURL, requests, ok2xx.Load(), overloaded.Load(), failed.Load()),
		Header: []string{"tier", "completed", "shed", "rejected", "Rsat", "p50 ms", "p99 ms"},
	}
	for _, tier := range dto.Tiers {
		row.Tiers = append(row.Tiers, GatewayTierRow{
			Tier:      tier.Tier,
			Completed: tier.Completed,
			Shed:      tier.Shed,
			Rejected:  tier.Rejected,
			Rsat:      tier.QoSSatRate,
			P50Ms:     tier.P50Ms,
			P99Ms:     tier.P99Ms,
		})
		t.AddRow(tier.Tier,
			fmt.Sprintf("%d", tier.Completed),
			fmt.Sprintf("%d", tier.Shed),
			fmt.Sprintf("%d", tier.Rejected),
			fmt.Sprintf("%.3f", tier.QoSSatRate),
			fmt.Sprintf("%.1f", tier.P50Ms),
			fmt.Sprintf("%.1f", tier.P99Ms))
	}
	report.Rows = []GatewayRow{row}

	if ok2xx.Load() == 0 {
		return t, report, fmt.Errorf("gateway smoke: no request served (of %d sent: %d overloaded, %d failed)",
			requests, overloaded.Load(), failed.Load())
	}
	for _, tier := range dto.Tiers {
		if tier.Tier == "critical" && tier.Shed > 0 {
			return t, report, fmt.Errorf("gateway smoke: %d critical-tier requests shed", tier.Shed)
		}
	}
	if err := verifyGatewayExposition(client, baseURL, ok2xx.Load()+overloaded.Load()); err != nil {
		return t, report, err
	}
	if err := verifyGatewayTraces(client, baseURL); err != nil {
		return t, report, err
	}
	return t, report, nil
}

// verifyGatewayExposition scrapes GET /metrics and cross-checks the
// Prometheus series against the flood: the core families must exist, the
// per-tier request counters must account for every answered request, and
// the served/shed/rejected split must conserve the offered total.
func verifyGatewayExposition(client *http.Client, baseURL string, answered uint64) error {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return fmt.Errorf("gateway smoke: scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway smoke: GET /metrics = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return fmt.Errorf("gateway smoke: read /metrics: %w", err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("gateway smoke: malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("gateway smoke: malformed value in %q: %v", line, err)
		}
		series[line[:sp]] = v
	}

	var reqs, served, shed, rejected float64
	for _, tier := range []string{"sheddable", "standard", "critical"} {
		key := `{tier="` + tier + `"}`
		if _, ok := series["ribbon_gateway_requests_total"+key]; !ok {
			return fmt.Errorf("gateway smoke: series ribbon_gateway_requests_total%s missing", key)
		}
		if _, ok := series["ribbon_gateway_request_latency_ms_count"+key]; !ok {
			return fmt.Errorf("gateway smoke: series ribbon_gateway_request_latency_ms_count%s missing", key)
		}
		if _, ok := series["ribbon_gateway_shed_total"+key]; !ok {
			return fmt.Errorf("gateway smoke: series ribbon_gateway_shed_total%s missing", key)
		}
		reqs += series["ribbon_gateway_requests_total"+key]
		served += series["ribbon_gateway_served_total"+key]
		shed += series["ribbon_gateway_shed_total"+key]
		rejected += series["ribbon_gateway_rejected_total"+key]
	}
	if served+shed+rejected != reqs {
		return fmt.Errorf("gateway smoke: served+shed+rejected = %.0f+%.0f+%.0f, want requests_total %.0f",
			served, shed, rejected, reqs)
	}
	if reqs < float64(answered) {
		return fmt.Errorf("gateway smoke: requests_total %.0f below the %d answered flood requests", reqs, answered)
	}
	return nil
}

// verifyGatewayTraces reads the sampled-trace ring and requires at least one
// served request with its span timeline intact and monotone.
func verifyGatewayTraces(client *http.Client, baseURL string) error {
	resp, err := client.Get(baseURL + "/v1/gateway/traces")
	if err != nil {
		return fmt.Errorf("gateway smoke: traces: %w", err)
	}
	defer resp.Body.Close()
	var traces api.GatewayTraces
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		return fmt.Errorf("gateway smoke: traces: %w", err)
	}
	checked := 0
	for _, tr := range traces.Traces {
		if tr.Outcome != "served" {
			continue
		}
		checked++
		prevEnd := 0.0
		for _, sp := range tr.Spans {
			if sp.EndMs < sp.StartMs || sp.StartMs < prevEnd {
				return fmt.Errorf("gateway smoke: trace %s span %s not monotone (%.3f..%.3f after %.3f)",
					tr.ID, sp.Name, sp.StartMs, sp.EndMs, prevEnd)
			}
			prevEnd = sp.EndMs
		}
	}
	if checked == 0 {
		return fmt.Errorf("gateway smoke: no served trace sampled (%d traces)", len(traces.Traces))
	}
	return nil
}
