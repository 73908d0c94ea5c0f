package mipp

import (
	"context"
	"fmt"

	"mipp/internal/config"
	"mipp/internal/core"
	"mipp/internal/mlp"
	"mipp/internal/perf"
	"mipp/internal/power"
)

// CPIStack attributes predicted (or simulated) cycles to CPI components:
// base, branch misprediction, instruction cache, chained LLC hits and DRAM.
type CPIStack = perf.CPIStack

// CPIComponent indexes CPIStack components.
type CPIComponent = perf.Component

// CPI stack components.
const (
	CPIBase   = perf.Base
	CPIBranch = perf.BranchComp
	CPIICache = perf.ICache
	CPILLCHit = perf.LLCHit
	CPIDRAM   = perf.DRAM
)

// Activity holds the activity factors the power model consumes: how often
// each processor structure is exercised (§3.6).
type Activity = perf.Activity

// PowerStack is a power breakdown in watts (static, core, functional units,
// caches, DRAM, branch predictor).
type PowerStack = power.Stack

// MLPMode selects the memory-level-parallelism model.
type MLPMode = mlp.Mode

// MLP models (§4.4-4.5).
const (
	// MLPStride is the per-static-load stride model (the default).
	MLPStride = mlp.StrideMLP
	// MLPColdMiss is the cold-miss-only model.
	MLPColdMiss = mlp.ColdMiss
	// MLPNone disables memory-level parallelism (every miss serialized).
	MLPNone = mlp.None
)

// DispatchModel restricts the effective-dispatch-rate terms for the ablation
// of Figure 3.7.
type DispatchModel = core.DispatchModel

// Dispatch model levels.
const (
	DispatchFull         = core.DispatchFull
	DispatchInstructions = core.DispatchInstructions
	DispatchUops         = core.DispatchUops
	DispatchCritical     = core.DispatchCritical
)

// EntropyFit maps a workload's linear branch entropy to a predicted
// misprediction rate for one predictor (the per-predictor linear fits of
// Figure 3.9).
type EntropyFit func(entropy float64) float64

// Predictor evaluates one workload profile against processor
// configurations. NewPredictor compiles the profile once (phase 1: the
// StatStack curves, per-micro-trace mixes and MLP models, and the memo
// tables every config-invariant quantity lands in); Predict and
// PredictBatch are then cheap analytical queries (phase 2) — the property
// that makes design-space exploration fast. A Predictor is safe for
// concurrent use.
type Predictor struct {
	opts       core.Options
	fits       map[string]func(float64) float64
	prefetcher *bool
	compiled   *core.Compiled
}

// PredictorOption customizes a Predictor.
type PredictorOption func(*Predictor)

// WithEntropyFits installs per-predictor entropy → misprediction-rate fits
// (Figure 3.9). Predictor names not present fall back to the asymptotic
// missrate ≈ entropy/2 relation.
func WithEntropyFits(fits map[string]EntropyFit) PredictorOption {
	return func(p *Predictor) {
		m := make(map[string]func(float64) float64, len(fits))
		for k, f := range fits {
			m[k] = f
		}
		p.fits = m
	}
}

// WithMLPMode selects the memory-level-parallelism model (default
// MLPStride).
func WithMLPMode(m MLPMode) PredictorOption {
	return func(p *Predictor) { p.opts.MLPMode = m }
}

// WithCombinedEvaluation evaluates one averaged profile instead of
// evaluating each micro-trace separately and combining predictions (the
// ISPASS-2015 baseline the TC'16 extension improves on, Figure 6.4).
func WithCombinedEvaluation() PredictorOption {
	return func(p *Predictor) { p.opts.Combined = true }
}

// WithBranchMissRate overrides the entropy-model misprediction rate with a
// fixed per-branch rate (used to isolate input errors, Table 6.2).
func WithBranchMissRate(rate float64) PredictorOption {
	return func(p *Predictor) { p.opts.BranchMissRate = rate }
}

// WithoutLLCChain disables the chained-LLC-hit penalty (§4.8 ablation).
func WithoutLLCChain() PredictorOption {
	return func(p *Predictor) { p.opts.NoLLCChain = true }
}

// WithoutBusQueue disables the memory-bus queuing delay (§4.7 ablation).
func WithoutBusQueue() PredictorOption {
	return func(p *Predictor) { p.opts.NoBusQueue = true }
}

// WithDispatchModel restricts the effective-dispatch-rate model (Figure 3.7
// ablation; default DispatchFull).
func WithDispatchModel(m DispatchModel) PredictorOption {
	return func(p *Predictor) { p.opts.DispatchModel = m }
}

// WithPrefetcher forces the stride prefetcher on (or off) for every
// evaluated configuration, overriding the configuration's own setting.
func WithPrefetcher(enabled bool) PredictorOption {
	return func(p *Predictor) { p.prefetcher = &enabled }
}

// NewPredictor builds a Predictor from a profile.
func NewPredictor(p *Profile, opts ...PredictorOption) (*Predictor, error) {
	if p == nil || p.raw == nil {
		return nil, fmt.Errorf("mipp: NewPredictor: nil or empty profile")
	}
	pd := &Predictor{opts: core.DefaultOptions()}
	for _, o := range opts {
		o(pd)
	}
	pd.compiled = core.Compile(p.raw, pd.fits, pd.opts)
	return pd, nil
}

// Workload returns the name of the profiled workload this Predictor
// evaluates.
func (pd *Predictor) Workload() string { return pd.compiled.Profile().Workload }

// Result is a complete prediction for one (workload, configuration) pair:
// cycles, the CPI stack, the activity factors and the power stack they
// imply.
type Result struct {
	// Config and Workload name the evaluated pair.
	Config   string
	Workload string
	// FrequencyGHz is the configuration's clock, kept so time and energy
	// derivations need no second look-up.
	FrequencyGHz float64
	// Cycles is the predicted execution time in core cycles.
	Cycles float64
	// Uops and Instructions are the stream totals the cycles cover.
	Uops         float64
	Instructions float64
	// Stack attributes the predicted cycles to CPI components.
	Stack CPIStack
	// Activity holds the predicted activity factors.
	Activity Activity
	// Power is the predicted power breakdown in watts.
	Power PowerStack
	// Deff is the uop-weighted average effective dispatch rate.
	Deff float64
	// MLP is the miss-weighted average predicted memory parallelism.
	MLP float64
	// BranchMissRate is the predicted per-branch misprediction rate.
	BranchMissRate float64
	// MicroCPI is the per-micro-trace predicted CPI (per uop), for phase
	// analysis (§6.5).
	MicroCPI []float64
	// Limiter counts micro-traces by what limits their effective dispatch
	// rate (Figure 3.6): width, dependences, functional port, functional
	// unit.
	Limiter [4]float64
}

// CPI returns predicted cycles per macro-instruction.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return r.Cycles / r.Instructions
}

// TimeSeconds returns predicted execution time at the configuration's clock.
func (r *Result) TimeSeconds() float64 { return r.Cycles / (r.FrequencyGHz * 1e9) }

// Watts returns total predicted power.
func (r *Result) Watts() float64 { return r.Power.Total() }

// EnergyJoules returns predicted energy for the run.
func (r *Result) EnergyJoules() float64 { return power.Energy(r.Power, r.TimeSeconds()) }

// EDP returns the energy-delay product (J·s).
func (r *Result) EDP() float64 { return power.EDP(r.Power, r.TimeSeconds()) }

// ED2P returns the energy-delay-squared product (J·s²), the DVFS-invariant
// metric of §7.3.
func (r *Result) ED2P() float64 { return power.ED2P(r.Power, r.TimeSeconds()) }

// Point projects the result onto the (time, power) plane used by the
// design-space exploration helpers.
func (r *Result) Point() Point {
	return Point{Config: r.Config, Time: r.TimeSeconds(), Power: r.Watts()}
}

// Predict evaluates one configuration: a batch of one through
// PredictBatchInto on a pooled BatchResult. The configuration is validated
// first and never mutated; Predict is safe to call concurrently.
func (pd *Predictor) Predict(cfg *Config) (*Result, error) {
	br := getBatchResult()
	defer putBatchResult(br)
	_ = pd.PredictBatchInto(context.Background(), []*Config{cfg}, br) // a Background context never cancels
	if err := br.Err(0); err != nil {
		return nil, err
	}
	return br.Result(0), nil
}

// PredictBatch evaluates every configuration in input order on one reused
// evaluation kernel — the batched phase-2 path Sweep and the service layer
// run on. results[i] always corresponds to configs[i] and is byte-identical
// to what Predict(configs[i]) returns; errs[i] is non-nil exactly where the
// configuration failed validation or predicted a number that is not finite
// (a bad configuration skips its slot, it does not abort the batch).
//
// Every configuration is validated up front; the context is then polled
// every few configurations (core.CtxCheckStride), so cancellation inside a
// large batch is observed promptly. On cancellation the configurations
// evaluated before the poll that saw it keep their results, the rest are
// nil, and ctx.Err() is returned. Safe for concurrent use.
//
// PredictBatch is a thin adapter over PredictBatchInto on a pooled
// BatchResult; batched callers that care about allocation should hold a
// BatchResult themselves.
func (pd *Predictor) PredictBatch(ctx context.Context, configs []*Config) (Results, []error, error) {
	br := getBatchResult()
	err := pd.PredictBatchInto(ctx, configs, br)
	results := make(Results, len(configs))
	errs := make([]error, len(configs))
	for i := range configs {
		errs[i] = br.Err(i)
		if br.Ok(i) {
			results[i] = br.Result(i)
		}
	}
	putBatchResult(br)
	return results, errs, err
}

// Config is a complete processor description; see mipp/arch for
// constructors (arch.Reference, arch.DesignSpace, ...).
type Config = config.Config

// EstimatePower runs the activity-factor power model directly, e.g. on the
// measured activity of a Simulate run.
func EstimatePower(cfg *Config, a *Activity) PowerStack { return power.Estimate(cfg, a) }
