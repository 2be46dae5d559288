// Package workload generates the inference query streams that drive every
// experiment: Poisson arrivals with heavy-tail log-normal batch sizes
// (the paper's production-trace emulation, Sec. 5.1), a Gaussian batch-size
// variant (Fig. 11 robustness study), and piecewise load schedules for the
// load-fluctuation experiments (Fig. 16) — including the named scenario
// presets (steady, noise, spike, diurnal, ramp) the continuous controller
// replays (internal/controller, docs/controller.md). Queries optionally
// carry a criticality class (Critical / Standard / Sheddable) consumed by
// the dispatch policies in internal/dispatch. Streams can be recorded to
// and replayed from JSON for the ribbon-trace tool; traces recorded before
// classes existed replay unchanged (missing class means Standard).
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"ribbon/internal/models"
	"ribbon/internal/stats"
)

// Criticality is a query's service class, modeled on the InferencePool
// criticality tiers: Critical work is routed first, Standard is the default
// best-effort tier, and Sheddable work may be dropped by a load-shedding
// dispatch policy under queue pressure. The empty string is Standard, so
// traces recorded before classes existed replay unchanged.
type Criticality string

// The service classes, in shed-first order.
const (
	// ClassCritical queries must meet QoS even under overload.
	ClassCritical Criticality = "critical"
	// ClassStandard is the default class; the zero value ("") means it.
	ClassStandard Criticality = "standard"
	// ClassSheddable queries tolerate being dropped under load.
	ClassSheddable Criticality = "sheddable"
)

// Classes lists the service classes in priority order, highest first.
func Classes() []Criticality {
	return []Criticality{ClassCritical, ClassStandard, ClassSheddable}
}

// Normalize maps the empty (legacy) class to Standard.
func (c Criticality) Normalize() Criticality {
	if c == "" {
		return ClassStandard
	}
	return c
}

// Valid reports whether c is a known class (including the legacy empty one).
func (c Criticality) Valid() bool {
	switch c {
	case "", ClassCritical, ClassStandard, ClassSheddable:
		return true
	}
	return false
}

// Rank orders classes for priority queues: higher serves first.
func (c Criticality) Rank() int {
	switch c.Normalize() {
	case ClassCritical:
		return 2
	case ClassSheddable:
		return 0
	default:
		return 1
	}
}

// Query is one inference request batch submitted to the serving pool.
type Query struct {
	// ID is the stream-unique sequence number.
	ID int `json:"id"`
	// ArrivalMs is the absolute arrival time in milliseconds.
	ArrivalMs float64 `json:"arrival_ms"`
	// Batch is the number of requests batched into this query.
	Batch int `json:"batch"`
	// Class is the query's criticality tier; empty means Standard, so
	// traces recorded before classes existed decode (and re-encode)
	// byte-identically.
	Class Criticality `json:"class,omitempty"`
}

// Stream is an ordered query sequence.
type Stream struct {
	// Model is the model name the stream was generated for.
	Model string `json:"model"`
	// Queries is ordered by non-decreasing arrival time.
	Queries []Query `json:"queries"`
}

// Duration returns the arrival span of the stream in milliseconds.
func (s *Stream) Duration() float64 {
	if len(s.Queries) == 0 {
		return 0
	}
	return s.Queries[len(s.Queries)-1].ArrivalMs
}

// MeanBatch returns the average batch size of the stream.
func (s *Stream) MeanBatch() float64 {
	if len(s.Queries) == 0 {
		return 0
	}
	sum := 0.0
	for _, q := range s.Queries {
		sum += float64(q.Batch)
	}
	return sum / float64(len(s.Queries))
}

// BatchKind selects the batch-size distribution family.
type BatchKind int

const (
	// HeavyTailLogNormalBatch is the default production emulation.
	HeavyTailLogNormalBatch BatchKind = iota
	// GaussianBatch is the Fig. 11 robustness variant: a Gaussian with
	// the same mean as the heavy-tail distribution.
	GaussianBatch
)

// String names the distribution for reports.
func (k BatchKind) String() string {
	switch k {
	case HeavyTailLogNormalBatch:
		return "heavy-tail log-normal"
	case GaussianBatch:
		return "Gaussian"
	default:
		return fmt.Sprintf("BatchKind(%d)", int(k))
	}
}

// ClassMix is the criticality composition of a generated stream: relative
// weights of the three classes. The zero value generates a legacy all-Standard
// stream with no class annotations (byte-identical to pre-class traces).
type ClassMix struct {
	// Critical, Standard, and Sheddable are relative (not necessarily
	// normalized) weights; negative weights are invalid.
	Critical  float64
	Standard  float64
	Sheddable float64
}

// IsZero reports whether the mix is unset (legacy single-class stream).
func (m ClassMix) IsZero() bool {
	return m.Critical == 0 && m.Standard == 0 && m.Sheddable == 0
}

// Validate rejects negative and non-finite weights (a NaN or Inf weight
// would silently misclassify the whole stream). An all-zero mix is valid: it
// is the "unset" zero value meaning a legacy all-Standard stream.
func (m ClassMix) Validate() error {
	for _, w := range []float64{m.Critical, m.Standard, m.Sheddable} {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("workload: class-mix weights must be finite and non-negative, got %+v", m)
		}
	}
	return nil
}

// Options configures stream generation.
type Options struct {
	// Queries is the number of queries to generate. Must be positive.
	Queries int
	// Seed selects the deterministic random stream.
	Seed uint64
	// RateScale multiplies the model's default arrival rate; 1 when zero.
	// Fig. 16 uses 1.5 for the scaled load.
	RateScale float64
	// Batch selects the batch-size distribution family.
	Batch BatchKind
	// Mix assigns criticality classes to the generated queries; the zero
	// value keeps the legacy unannotated all-Standard stream.
	Mix ClassMix
}

// BatchSampler returns the integer batch-size sampler for a model profile
// under the given distribution family.
func BatchSampler(m models.Profile, kind BatchKind) stats.IntSampler {
	b := m.Batch
	switch kind {
	case HeavyTailLogNormalBatch:
		return stats.ClampedIntDist{
			Dist: stats.HeavyTailLogNormal{
				Mu: b.Mu, Sigma: b.Sigma,
				TailProb: b.TailProb, TailScale: b.TailScale, TailShape: b.TailShape,
			},
			Min: 1, Max: b.MaxBatch,
		}
	case GaussianBatch:
		mean := stats.HeavyTailLogNormal{
			Mu: b.Mu, Sigma: b.Sigma,
			TailProb: b.TailProb, TailScale: b.TailScale, TailShape: b.TailShape,
		}.Mean()
		// The Gaussian variant matches the heavy-tail distribution's
		// location with a wide spread (0.65x the mean): wide enough
		// that batch-size pressure still differentiates the instance
		// types, narrow enough that typical queries stay small and the
		// cheap helper types remain economical (Fig. 11 robustness
		// check).
		return stats.ClampedIntDist{
			Dist: stats.NormalDist{Mu: mean, Sigma: 0.65 * mean},
			Min:  1, Max: b.MaxBatch,
		}
	default:
		panic(fmt.Sprintf("workload: unknown batch kind %d", int(kind)))
	}
}

// Generate produces a query stream for the model: Poisson arrivals at
// RateScale x the model's default rate and batch sizes from the selected
// distribution.
func Generate(m models.Profile, opts Options) *Stream {
	if opts.Queries <= 0 {
		panic("workload: Options.Queries must be positive")
	}
	scale := opts.RateScale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		panic("workload: negative RateScale")
	}
	rate := m.ArrivalRateQPS * scale / 1000 // queries per ms
	arrivalRNG := stats.Derive(opts.Seed, "workload", "arrival", m.Name)
	batchRNG := stats.Derive(opts.Seed, "workload", "batch", m.Name, opts.Batch.String())
	sampler := BatchSampler(m, opts.Batch)

	st := &Stream{Model: m.Name, Queries: make([]Query, opts.Queries)}
	t := 0.0
	for i := 0; i < opts.Queries; i++ {
		t += arrivalRNG.Exponential(rate)
		st.Queries[i] = Query{ID: i, ArrivalMs: t, Batch: sampler.SampleInt(batchRNG)}
	}
	st.AssignClasses(opts.Seed, opts.Mix)
	return st
}

// AssignClasses stamps a deterministic criticality class onto every query
// according to the mix weights. It composes with any stream source —
// Generate, GenerateSchedule, or a replayed trace. A zero mix is a no-op, so
// class-free generation stays byte-identical to pre-class streams; the class
// random stream is drawn separately from the arrival and batch streams, so a
// mixed stream has exactly the same arrival times and batch sizes as its
// unmixed twin.
func (s *Stream) AssignClasses(seed uint64, mix ClassMix) {
	if mix.IsZero() {
		return
	}
	if err := mix.Validate(); err != nil {
		panic(err)
	}
	total := mix.Critical + mix.Standard + mix.Sheddable
	rng := stats.Derive(seed, "workload", "class", s.Model)
	for i := range s.Queries {
		u := rng.Float64() * total
		switch {
		case u < mix.Critical:
			s.Queries[i].Class = ClassCritical
		case u < mix.Critical+mix.Standard:
			s.Queries[i].Class = ClassStandard
		default:
			s.Queries[i].Class = ClassSheddable
		}
	}
}

// HasClasses reports whether any query carries an explicit (non-legacy)
// criticality annotation.
func (s *Stream) HasClasses() bool {
	for _, q := range s.Queries {
		if q.Class != "" {
			return true
		}
	}
	return false
}

// Phase is one segment of a load schedule.
type Phase struct {
	// Queries generated during this phase.
	Queries int
	// RateScale applied to the model's default arrival rate.
	RateScale float64
}

// GenerateSchedule produces a stream whose arrival rate follows the phases in
// order: the Fig. 16 experiments use [{N, 1.0}, {M, 1.5}].
func GenerateSchedule(m models.Profile, seed uint64, kind BatchKind, phases []Phase) *Stream {
	if len(phases) == 0 {
		panic("workload: empty schedule")
	}
	arrivalRNG := stats.Derive(seed, "workload", "arrival", m.Name)
	batchRNG := stats.Derive(seed, "workload", "batch", m.Name, kind.String())
	sampler := BatchSampler(m, kind)

	st := &Stream{Model: m.Name}
	t := 0.0
	id := 0
	for pi, ph := range phases {
		if ph.Queries <= 0 || ph.RateScale <= 0 {
			panic(fmt.Sprintf("workload: invalid phase %d: %+v", pi, ph))
		}
		rate := m.ArrivalRateQPS * ph.RateScale / 1000
		for i := 0; i < ph.Queries; i++ {
			t += arrivalRNG.Exponential(rate)
			st.Queries = append(st.Queries, Query{ID: id, ArrivalMs: t, Batch: sampler.SampleInt(batchRNG)})
			id++
		}
	}
	return st
}

// WriteJSON serializes the stream.
func (s *Stream) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// ReadJSON deserializes one stream strictly and validates its invariants.
// An unknown key is an error, so a misspelled "queries" does not read as an
// empty stream, and so is any data after the stream.
func ReadJSON(r io.Reader) (*Stream, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Stream
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: decoding stream: %w", err)
	}
	// Token reports io.EOF only when nothing but whitespace follows; More
	// alone would let a stray closing '}' or ']' through.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("workload: trailing data after stream")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the stream's structural invariants: positive batch sizes,
// non-decreasing finite arrival times, and known criticality classes.
func (s *Stream) Validate() error {
	prev := math.Inf(-1)
	for i, q := range s.Queries {
		if q.Batch < 1 {
			return fmt.Errorf("workload: query %d has batch %d", i, q.Batch)
		}
		if !q.Class.Valid() {
			return fmt.Errorf("workload: query %d has unknown class %q", i, q.Class)
		}
		if math.IsNaN(q.ArrivalMs) || math.IsInf(q.ArrivalMs, 0) {
			return fmt.Errorf("workload: query %d has non-finite arrival", i)
		}
		if q.ArrivalMs < prev {
			return errors.New("workload: arrivals not sorted")
		}
		prev = q.ArrivalMs
	}
	return nil
}
