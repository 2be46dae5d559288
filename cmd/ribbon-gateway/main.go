// Command ribbon-gateway runs the Ribbon live serving data plane: an HTTP
// ingress that admits inference requests, classifies them by criticality,
// dispatches them across a heterogeneous instance pool under one of the
// paper's routing policies, and — when the controller is enabled — streams
// every measured arrival into the continuous pool controller so the live
// pool follows the load it is actually receiving.
//
// Endpoints (v1):
//
//	POST /v1/infer            InferRequest -> InferResponse (or 503 + Retry-After)
//	GET  /v1/gateway/metrics  data-plane snapshot: per-tier latency quantiles,
//	                          shed/reject counters, live instances, decisions
//	GET  /v1/gateway/slo      burn-rate SLO status when -slo is set
//	GET  /healthz             liveness probe
//
// Two backends are built in: the default simulated backend sleeps out the
// calibrated service-time model (optionally time-compressed via -time-scale),
// and -proxy-target forwards every admitted request to a real serving
// endpoint. See docs/gateway.md.
//
// Usage:
//
//	ribbon-gateway -addr :8081 -model CANDLE -types c5a,m5,t3 -initial 2+2+2
//	ribbon-gateway -model CANDLE -controller            # cold search + live adaptation
//	ribbon-gateway -proxy-target http://10.0.0.7:8501/v1/predict -initial 4+0+0
//
// The process drains connections on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ribbon/internal/chaos"
	"ribbon/internal/controller"
	"ribbon/internal/dispatch"
	"ribbon/internal/gateway"
	"ribbon/internal/models"
	"ribbon/internal/obs"
	"ribbon/internal/serving"
)

func main() {
	var f gatewayFlags
	flag.StringVar(&f.model, "model", "CANDLE", "served model (see ribbon-explore -list)")
	flag.StringVar(&f.types, "types", "c5a,m5,t3", "instance type families, preference order")
	flag.Float64Var(&f.qos, "qos", 0.99, "QoS satisfaction percentile")
	flag.StringVar(&f.policy, "policy", "fcfs", "dispatch policy: fcfs, least-loaded, cost-random, criticality")
	flag.IntVar(&f.shedQueue, "shed-queue", 0, "criticality policy shed threshold (0: default)")
	flag.StringVar(&f.initial, "initial", "", "initial pool configuration, e.g. 2+2+2 (empty: cold search)")
	flag.IntVar(&f.budget, "budget", 40, "cold-search evaluation budget")
	flag.Float64Var(&f.rateScale, "rate-scale", 1, "provisioned load scale relative to the model's base rate")
	flag.IntVar(&f.queries, "queries", 4000, "simulated queries per controller evaluation")
	flag.Uint64Var(&f.seed, "seed", 42, "deterministic seed for searches and routing")
	flag.BoolVar(&f.controller, "controller", false, "enable live adaptation from measured arrivals")
	flag.Float64Var(&f.windowMs, "window-ms", 0, "controller estimator window (0: default 10000)")
	flag.Float64Var(&f.tickMs, "tick-ms", 0, "controller detector tick (0: default 1000)")
	flag.Float64Var(&f.dwellMs, "dwell-ms", 0, "controller dwell before confirming a shift (0: default 4000)")
	flag.Float64Var(&f.threshold, "threshold", 0, "controller relative deviation threshold (0: default 0.25)")
	flag.IntVar(&f.adaptBudget, "adapt-budget", 0, "controller re-search budget (0: default 16)")
	flag.Float64Var(&f.timeScale, "time-scale", 1, "stream-to-wall time compression for the simulated backend")
	flag.IntVar(&f.queueDepth, "queue-depth", 0, "bound of each instance FIFO and each shared-queue rank (0: default 64)")
	flag.Float64Var(&f.warmupMs, "warmup-ms", 0, "warm-up charge for instances added by a reconfiguration, stream ms")
	flag.StringVar(&f.proxyTarget, "proxy-target", "", "forward requests to this endpoint instead of simulating")
	flag.Float64Var(&f.chaosStorm, "chaos-storm", 0, "inject a seeded capacity storm: multiplier on catalog spot revocation rates (0: disabled)")
	flag.Float64Var(&f.chaosFailures, "chaos-failures", 0, "storm hard-failure rate per family per hour")
	flag.Float64Var(&f.chaosPriceStepMs, "chaos-price-step-ms", 0, "storm spot-price walk step, stream ms (0: no price events)")
	flag.Float64Var(&f.chaosWarningMs, "chaos-warning-ms", 0, "storm revocation notice window, stream ms (0: the two-minute default)")
	flag.Float64Var(&f.chaosRestoreMs, "chaos-restore-ms", 0, "respawn storm-lost capacity this many ms after it leaves (0: stays lost)")
	flag.Float64Var(&f.chaosHorizonMs, "chaos-horizon-ms", 600000, "stream-time extent of the generated storm")
	flag.Uint64Var(&f.chaosSeed, "chaos-seed", 0, "storm seed (0: the -seed value)")
	flag.BoolVar(&f.useSpot, "use-spot", false, "price controller decisions and the spend meter at spot-market rates")
	flag.BoolVar(&f.slo, "slo", false, "track per-tier burn-rate SLOs and serve GET /v1/gateway/slo")
	flag.Float64Var(&f.sloSampleMs, "slo-sample-ms", 0, "SLO sampling interval, stream ms (0: default 500)")
	flag.BoolVar(&f.sloTrigger, "slo-trigger", false, "page-severity alerts trigger a controller re-search (needs -controller)")
	flag.IntVar(&f.traceSampleEvery, "trace-sample", 0, "sample one request trace in every N (0: default 16)")
	var (
		addr      = flag.String("addr", ":8081", "listen address")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log encoding: text (key=value) or json")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this extra address (empty: disabled)")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ribbon-gateway: %v\n", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		bound, stopPprof, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ribbon-gateway: pprof: %v\n", err)
			os.Exit(1)
		}
		defer stopPprof()
		logger.Info("pprof listening", obs.F("addr", bound))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	f.logger = logger
	opts, err := buildOptions(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ribbon-gateway: %v\n", err)
		os.Exit(2)
	}
	if err := run(ctx, *addr, opts); err != nil {
		fmt.Fprintf(os.Stderr, "ribbon-gateway: %v\n", err)
		os.Exit(1)
	}
}

// gatewayFlags is the command line buildOptions reads: main binds each flag
// to its field, and tests fill the struct directly.
type gatewayFlags struct {
	model, types     string
	qos              float64
	policy           string
	shedQueue        int
	initial          string
	budget           int
	rateScale        float64
	queries          int
	seed             uint64
	controller       bool
	windowMs         float64
	tickMs           float64
	dwellMs          float64
	threshold        float64
	adaptBudget      int
	timeScale        float64
	queueDepth       int
	warmupMs         float64
	proxyTarget      string
	chaosStorm       float64
	chaosFailures    float64
	chaosPriceStepMs float64
	chaosWarningMs   float64
	chaosRestoreMs   float64
	chaosHorizonMs   float64
	chaosSeed        uint64
	useSpot          bool
	slo              bool
	sloSampleMs      float64
	sloTrigger       bool
	logger           *obs.Logger
	traceSampleEvery int
}

// newLogger builds the process logger from the -log-level/-log-format flags.
func newLogger(level, format string) (*obs.Logger, error) {
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	fm, err := obs.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(os.Stderr, lv, fm), nil
}

// buildOptions translates flags into gateway.Options.
func buildOptions(f gatewayFlags) (gateway.Options, error) {
	m, err := models.Lookup(f.model)
	if err != nil {
		return gateway.Options{}, err
	}
	fams := strings.Split(f.types, ",")
	for i := range fams {
		fams[i] = strings.TrimSpace(fams[i])
	}
	spec, err := serving.NewPoolSpec(m, f.qos, fams...)
	if err != nil {
		return gateway.Options{}, err
	}

	opts := gateway.Options{
		Spec: spec,
		Dispatch: dispatch.Spec{
			Kind:            dispatch.Kind(f.policy),
			ShedQueueLength: f.shedQueue,
		},
		InitialBudget: f.budget,
		Sim: serving.SimOptions{
			Seed:      f.seed,
			Queries:   f.queries,
			RateScale: f.rateScale,
		},
		Seed:             f.seed,
		TimeScale:        f.timeScale,
		QueueDepth:       f.queueDepth,
		WarmupMs:         f.warmupMs,
		Logger:           f.logger,
		TraceSampleEvery: f.traceSampleEvery,
	}
	if f.initial != "" {
		cfg, err := serving.ParseConfig(f.initial)
		if err != nil {
			return gateway.Options{}, err
		}
		opts.Initial = cfg
	}
	if f.controller {
		opts.Controller = &controller.Params{
			WindowMs:     f.windowMs,
			TickMs:       f.tickMs,
			RelThreshold: f.threshold,
			DwellMs:      f.dwellMs,
			AdaptBudget:  f.adaptBudget,
		}
	}
	if f.proxyTarget != "" {
		opts.Backend = &gateway.ProxyBackend{Target: f.proxyTarget, TimeScale: f.timeScale, Seed: f.seed}
	} else {
		opts.Backend = gateway.NewSimBackend(m, f.timeScale, f.seed)
	}
	if f.chaosStorm != 0 || f.chaosFailures > 0 || f.chaosPriceStepMs > 0 {
		seed := f.chaosSeed
		if seed == 0 {
			seed = f.seed
		}
		opts.Chaos = chaos.GenerateStorm(chaos.StormOptions{
			Seed:                 seed,
			HorizonMs:            f.chaosHorizonMs,
			Families:             fams,
			RevocationMultiplier: f.chaosStorm,
			WarningMs:            f.chaosWarningMs,
			FailuresPerHour:      f.chaosFailures,
			PriceStepMs:          f.chaosPriceStepMs,
			RestoreAfterMs:       f.chaosRestoreMs,
		})
	}
	opts.UseSpot = f.useSpot
	if f.slo || f.sloTrigger {
		if f.sloTrigger && !f.controller {
			return gateway.Options{}, fmt.Errorf("-slo-trigger needs -controller")
		}
		opts.SLO = &gateway.SLOOptions{
			SampleEveryMs: f.sloSampleMs,
			Trigger:       f.sloTrigger,
		}
	}
	return opts, nil
}

// run builds the gateway (including any initial search) and serves until the
// context is cancelled, then drains connections and shuts the data plane
// down.
func run(ctx context.Context, addr string, opts gateway.Options) error {
	g, err := gateway.New(ctx, opts)
	if err != nil {
		return err
	}
	defer g.Close()
	opts.Logger.Info("ribbon-gateway pool ready",
		obs.F("config", g.Config().Key()),
		obs.F("model", opts.Spec.Model.Name),
		obs.F("dispatch", opts.Dispatch.Name()))

	hs := &http.Server{
		Addr:        addr,
		Handler:     g.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() {
		opts.Logger.Info("ribbon-gateway listening", obs.F("addr", addr))
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	opts.Logger.Info("ribbon-gateway shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(drainCtx)
}
