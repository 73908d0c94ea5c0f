// Package core implements the micro-architecture independent interval model
// — the paper's primary contribution. From a one-time application profile
// and a processor description it predicts cycles, CPI stacks and the
// activity factors the power model consumes, with no simulation in the loop:
//
//	C = N/Deff + m_bpred·(c_res + c_fe) + Σ m_ILi·c_Li+1
//	    + m_LLC·(c_mem + c_bus)/MLP + P_hLLC            (Equation 3.1)
//
// The effective dispatch rate Deff (§3.3-3.4) captures dependence and
// issue-stage contention; branch mispredictions come from linear branch
// entropy (§3.5); cache misses from StatStack (§4.2); MLP from the cold-miss
// or stride model (§4.4-4.5) with MSHR and bus corrections (§4.6-4.7); and
// chained LLC hits add the penalty of §4.8.
//
// The model is evaluated per micro-trace and the predictions combined
// (the sampled-model-evaluation contribution of the TC'16 paper), which
// captures bursty contention that an averaged profile would smear out.
//
// Evaluation is split into two phases. Compile (phase 1) precomputes and
// memoizes everything that does not depend on the full configuration — the
// StatStack curves, per-micro mixes and MLP models, per-cache-geometry miss
// ratios. EvaluateRangeInto (phase 2) is then a cheap analytical query per
// configuration on one kernel, Batch; see Compiled.
package core

import (
	"math"

	"mipp/internal/config"
	"mipp/internal/mlp"
	"mipp/internal/perf"
	"mipp/internal/profiler"
	"mipp/internal/trace"
)

// Options modify a model evaluation.
type Options struct {
	// MLPMode selects the MLP model (default StrideMLP).
	MLPMode mlp.Mode
	// Combined evaluates one averaged profile instead of evaluating each
	// micro-trace separately and combining predictions (the ISPASS-2015
	// baseline the TC'16 paper improves on, Figure 6.4).
	Combined bool
	// NoLLCChain disables the chained-LLC-hit penalty (§4.8 ablation).
	NoLLCChain bool
	// NoBusQueue disables the memory-bus queuing delay (§4.7 ablation).
	NoBusQueue bool
	// BranchMissRate overrides the entropy-model misprediction rate when
	// >= 0 (used to isolate input errors, Table 6.2). Set to -1 to use
	// the entropy model.
	BranchMissRate float64
	// DispatchModel restricts the effective-dispatch-rate terms for the
	// ablation of Figure 3.7 (default DispatchFull).
	DispatchModel DispatchModel
}

// DispatchModel enumerates the progressive base-component refinements of
// Figure 3.7.
type DispatchModel int

// Dispatch model levels.
const (
	// DispatchFull applies all terms of Equation 3.10.
	DispatchFull DispatchModel = iota
	// DispatchInstructions divides macro-instructions by the width.
	DispatchInstructions
	// DispatchUops divides uops by the physical width.
	DispatchUops
	// DispatchCritical adds the critical-path limit.
	DispatchCritical
)

// DefaultOptions returns the standard configuration (stride MLP, separate
// micro-trace evaluation, every component enabled).
func DefaultOptions() Options {
	return Options{MLPMode: mlp.StrideMLP, BranchMissRate: -1}
}

// Result is a complete model prediction.
type Result struct {
	Config       string
	Workload     string
	Cycles       float64
	Uops         float64
	Instructions float64
	// Stack attributes predicted cycles to CPI components.
	Stack perf.CPIStack
	// Activity holds the predicted activity factors for the power model.
	Activity perf.Activity
	// Deff is the (uop-weighted) average effective dispatch rate.
	Deff float64
	// MLP is the (miss-weighted) average predicted memory parallelism.
	MLP float64
	// BranchMissRate is the predicted per-branch misprediction rate.
	BranchMissRate float64
	// LLCLoadMisses is the predicted number of long-latency load misses.
	LLCLoadMisses float64
	// DRAMStallPerMiss is the predicted average DRAM stall per miss.
	DRAMStallPerMiss float64
	// MicroCPI is the per-micro-trace predicted CPI (per uop), for phase
	// analysis.
	MicroCPI []float64
	// Limiter counts micro-traces by their dispatch-rate limiter
	// (Figure 3.6): [width, dependences, port, unit].
	Limiter [4]float64
}

// CPI returns predicted cycles per macro-instruction.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return r.Cycles / r.Instructions
}

// TimeSeconds returns predicted execution time at freqGHz.
func (r *Result) TimeSeconds(freqGHz float64) float64 {
	return r.Cycles / (freqGHz * 1e9)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// averageLatency returns the mix-weighted uop execution latency, counting
// loads at their L1/L2-hit cost (long misses are separate penalty terms).
func averageLatency(mix [trace.NumClasses]float64, cfg *config.Config, mrL1 float64) float64 {
	lat := 0.0
	for c := trace.Class(0); c < trace.NumClasses; c++ {
		f := mix[c]
		if f == 0 {
			continue
		}
		switch c {
		case trace.Load:
			l := float64(cfg.L1D.LatencyCycles)*(1-mrL1) + float64(cfg.L2.LatencyCycles)*mrL1
			lat += f * l
		default:
			lat += f * float64(cfg.FU[c].Latency)
		}
	}
	if lat < 1 {
		lat = 1
	}
	return lat
}

// effectiveDispatchLimits computes the port- and unit-contention dispatch
// bounds — functions of the uop mix and the port/FU tables only, never of
// latency, window or clock, so a core column computes them once.
//
//mipp:hotpath
func effectiveDispatchLimits(mix [trace.NumClasses]float64, cfg *config.Config, scr *scratch) (portD, unitD float64) {
	// Port contention: schedule the mix onto ports (§3.4's greedy
	// algorithm) and bound by the busiest port's activity.
	// Functional-unit contention: pipelined units bound by unit count,
	// non-pipelined by count/latency.
	return portLimit(mix, cfg, scr), unitLimit(mix, cfg)
}

// effectiveDispatchFrom combines the dispatch bounds into Deff (Eq 3.10)
// and reports which factor limits it: 0 = dispatch width, 1 = dependences,
// 2 = functional port, 3 = functional unit. portD and unitD are read only
// under DispatchFull, the one model that prices contention.
//
//mipp:hotpath
func effectiveDispatchFrom(cfg *config.Config, lat, cp float64, dm DispatchModel, portD, unitD float64) (float64, int) {
	deff := float64(cfg.DispatchWidth)
	limiter := 0
	if dm == DispatchUops || dm == DispatchInstructions {
		return deff, limiter
	}
	// Dependence limit: ROB / (lat · CP).
	if cp > 0 {
		if dep := float64(cfg.ROB) / (lat * cp); dep < deff {
			deff = dep
			limiter = 1
		}
	}
	if dm == DispatchCritical {
		return deff, limiter
	}
	if portD < deff {
		deff = portD
		limiter = 2
	}
	if unitD < deff {
		deff = unitD
		limiter = 3
	}
	if deff < 0.05 {
		deff = 0.05
	}
	return deff, limiter
}

// portLimit builds the greedy issue schedule of §3.4: classes served by a
// single port are pinned first; classes with a choice are balanced over
// their ports given the already-scheduled activity. The dispatch bound is
// 1 / (busiest port's activity per uop).
func portLimit(mix [trace.NumClasses]float64, cfg *config.Config, scr *scratch) float64 {
	if cap(scr.activity) < len(cfg.Ports) {
		scr.activity = make([]float64, len(cfg.Ports))
	}
	activity := scr.activity[:len(cfg.Ports)]
	for i := range activity {
		activity[i] = 0
	}
	multi := scr.multi[:0]
	for c := trace.Class(0); c < trace.NumClasses; c++ {
		if mix[c] == 0 {
			continue
		}
		first, count := -1, 0
		for pi, port := range cfg.Ports {
			if port.Serves(c) {
				if count == 0 {
					first = pi
				}
				count++
			}
		}
		if count == 1 {
			activity[first] += mix[c]
		} else if count > 1 {
			multi = append(multi, c)
		}
	}
	scr.multi = multi
	for _, c := range multi {
		// Spread this class over its ports as evenly as possible,
		// water-filling against existing activity.
		serving := scr.serving[:0]
		for pi, port := range cfg.Ports {
			if port.Serves(c) {
				serving = append(serving, pi)
			}
		}
		scr.serving = serving
		remaining := mix[c]
		// Water-fill: repeatedly raise the least-loaded serving ports
		// (all ports tied at the minimum level) towards the next level.
		for iter := 0; iter < 16 && remaining > 1e-12; iter++ {
			minVal := activity[serving[0]]
			for _, pi := range serving[1:] {
				if activity[pi] < minVal {
					minVal = activity[pi]
				}
			}
			tied := scr.tied[:0]
			next := math.Inf(1)
			for _, pi := range serving {
				if activity[pi] == minVal {
					tied = append(tied, pi)
				} else if activity[pi] < next {
					next = activity[pi]
				}
			}
			scr.tied = tied
			give := remaining / float64(len(tied))
			if !math.IsInf(next, 1) && next-minVal < give {
				give = next - minVal
			}
			for _, pi := range tied {
				activity[pi] += give
				remaining -= give
			}
		}
	}
	busiest := 0.0
	for _, a := range activity {
		if a > busiest {
			busiest = a
		}
	}
	if busiest <= 0 {
		return math.Inf(1)
	}
	return 1 / busiest
}

// unitLimit bounds dispatch by functional-unit counts: N·U_i/N_i for
// pipelined units and N·U_j/(N_j·lat_j) for non-pipelined ones (Eq 3.10).
func unitLimit(mix [trace.NumClasses]float64, cfg *config.Config) float64 {
	limit := math.Inf(1)
	for c := trace.Class(0); c < trace.NumClasses; c++ {
		if mix[c] == 0 {
			continue
		}
		units := float64(cfg.UnitCount(c))
		if units == 0 {
			continue
		}
		var d float64
		if cfg.FU[c].Pipelined {
			d = units / mix[c]
		} else {
			d = units / (mix[c] * float64(cfg.FU[c].Latency))
		}
		if d < limit {
			limit = d
		}
	}
	return limit
}

// combineMicros collapses all micro-traces into one averaged pseudo-trace
// (the pre-TC'16 "combined" evaluation of Figure 6.4).
func combineMicros(p *profiler.Profile) *profiler.Micro {
	out := &profiler.Micro{
		Reuse:      p.ReuseAll,
		ReuseLoads: p.ReuseLoad,
		Chains:     p.Chains,
	}
	for _, m := range p.Micros {
		out.Len += m.Len
		out.Instrs += m.Instrs
		out.Branches += m.Branches
		out.ColdLoads += m.ColdLoads
		out.LoadCount += m.LoadCount
		out.StoreCount += m.StoreCount
		out.ColdLoadReuse += m.ColdLoadReuse
		out.ColdReuse += m.ColdReuse
		for c, cnt := range m.MixCounts {
			out.MixCounts[c] += cnt
		}
		out.Loads = append(out.Loads, m.Loads...)
	}
	// Merge the load-dependence histograms index-wise.
	if len(p.Micros) > 0 {
		for i := range p.Micros[0].LoadDeps {
			out.LoadDeps = append(out.LoadDeps, p.LoadDepHistFor(p.Opts.ROBs[i]))
		}
	}
	return out
}
