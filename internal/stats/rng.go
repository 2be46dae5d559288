// Package stats provides the random-number, probability-distribution, and
// summary-statistics substrate used by every stochastic component of the
// Ribbon reproduction: workload generators, the latency model's service-time
// noise, and the search strategies.
//
// All randomness flows through RNG, a thin deterministic wrapper around a
// PCG source. Seeds are derived with DeriveSeed from (master seed, labels...)
// so that independent subsystems never share a stream and every experiment is
// reproducible from a single master seed.
package stats

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random generator. The zero value is not
// usable; construct with NewRNG.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a generator seeded with the two given 64-bit words.
func NewRNG(seed1, seed2 uint64) *RNG {
	return &RNG{src: rand.New(rand.NewPCG(seed1, seed2))}
}

// DeriveSeed hashes a master seed together with an arbitrary list of string
// labels into a stable 64-bit stream seed. Distinct label lists yield
// independent streams with overwhelming probability.
func DeriveSeed(master uint64, labels ...string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(master >> (8 * i))
	}
	h.Write(buf[:])
	for _, l := range labels {
		h.Write([]byte{0})
		h.Write([]byte(l))
	}
	return h.Sum64()
}

// Derive returns a fresh RNG whose stream is a deterministic function of the
// master seed and the labels.
func Derive(master uint64, labels ...string) *RNG {
	s := DeriveSeed(master, labels...)
	// Use two decorrelated words for the PCG state.
	return NewRNG(s, s*0x9E3779B97F4A7C15+0x7F4A7C15)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample in [0, n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// NormFloat64 returns a standard normal sample.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// ExpFloat64 returns a unit-rate exponential sample.
func (r *RNG) ExpFloat64() float64 { return r.src.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Exponential returns a sample from Exp(rate); the mean is 1/rate.
// It panics if rate <= 0.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential requires rate > 0")
	}
	return r.src.ExpFloat64() / rate
}

// Normal returns a sample from N(mu, sigma^2).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.src.NormFloat64()
}

// LogNormal returns a sample whose logarithm is N(mu, sigma^2).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a sample from a Pareto distribution with scale xm > 0 and
// shape alpha > 0. The support is [xm, +inf).
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("stats: Pareto requires xm > 0 and alpha > 0")
	}
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}
