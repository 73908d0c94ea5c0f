// Package mlp implements the memory-level parallelism models of Chapter 4:
// the cold-miss MLP model (§4.4, Equations 4.1-4.3), the stride-MLP model
// built on a virtual instruction stream (§4.5), the MSHR soft cap (§4.6,
// Equation 4.4), the memory-bus queuing model (§4.7, Equations 4.5-4.6) and
// the stride-prefetcher interaction (§4.9, Equation 4.13).
//
// Compile prepares one micro-trace for many configurations. It builds the
// virtual stream's config-independent part once, and keeps the stream's
// miss marks per LLC line count and its dependence depths per profiled-ROB
// index, so a sweep pays for each of those keys once rather than for every
// pair of them.
package mlp

import (
	"math"

	"mipp/internal/prefetch"
	"mipp/internal/profiler"
	"mipp/internal/stats"
	"mipp/internal/statstack"
)

// Mode selects the MLP modeling technique.
type Mode int

// MLP model variants.
const (
	// ColdMiss is the ISPASS-2015 model leveraging cold-miss burstiness.
	ColdMiss Mode = iota
	// StrideMLP is the CAL-2018 model built on per-static-load stride
	// behaviour and a virtual instruction stream.
	StrideMLP
	// None disables MLP modeling (MLP = 1), the "no MLP" baseline of
	// Figure 4.3.
	None
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ColdMiss:
		return "cold-miss"
	case StrideMLP:
		return "stride"
	default:
		return "none"
	}
}

// Params carries the micro-architectural inputs of the MLP models.
type Params struct {
	ROB        int
	MSHRs      int
	MemLatency int // DRAM access latency in cycles (device, §4.6's T_DRAM)
	BusPerLine int // c_transfer of Equation 4.5
	L1Lines    float64
	L2Lines    float64
	LLCLines   float64
	// LoadFrac is the fraction of uops that are loads (for L̄(ROB)).
	LoadFrac float64
	// Prefetch describes the hardware prefetcher to model (§4.9).
	Prefetch prefetch.Config
	// Mode selects the model.
	Mode Mode
	// MispredictEvery is the expected number of uops between branch
	// mispredictions; a misprediction drains the window, so the effective
	// MLP window is min(ROB, MispredictEvery). Zero means no limit.
	MispredictEvery float64
	// DispatchRate is the effective dispatch rate Deff (informational;
	// carried for diagnostics and future stagger corrections).
	DispatchRate float64
}

// window returns the effective ROB window after branch-misprediction
// truncation.
func (p Params) window() int {
	w := p.ROB
	if p.MispredictEvery > 0 && p.MispredictEvery < float64(w) {
		w = int(p.MispredictEvery)
		if w < 8 {
			w = 8
		}
	}
	return w
}

// MicroMem is the memory behaviour predicted for one micro-trace.
type MicroMem struct {
	// Loads is the number of loads in the micro-trace.
	Loads float64
	// MissPerLoad is the predicted LLC load miss ratio.
	MissPerLoad float64
	// MLP is the memory-level parallelism after the MSHR cap.
	MLP float64
	// RawMLP is the model's MLP before the MSHR cap.
	RawMLP float64
	// PrefetchTimely is the fraction of LLC misses fully covered by the
	// prefetcher (latency completely hidden).
	PrefetchTimely float64
	// PrefetchPartial is the fraction of LLC misses covered but not
	// timely; their residual latency is MemLatency − Spacing/Deff
	// (Equation 4.13, resolved by the core model which knows Deff).
	PrefetchPartial float64
	// PartialSpacing is the average uop distance between the prefetch
	// trigger and the target access, for the partial fraction.
	PartialSpacing float64
}

// Evaluate predicts the memory behaviour of one micro-trace. It is the
// one-shot entry point: callers evaluating the same micro-trace against
// many configurations should Compile once and reuse the Compiled's memo
// tables instead.
func Evaluate(p *profiler.Profile, m *profiler.Micro, curve *statstack.Curve, prm Params) MicroMem {
	return Compile(p, m, curve).evaluate(prm)
}

// mshrCap applies the soft MSHR cap of Equation 4.4. The DRAM_MSHR parallel
// accesses occupy all entries; the DRAM_wait overflowing accesses wait
// T_MSHRfree for a slot and hide only the remainder of the DRAM latency.
// Misses arrive in bursts, so an overflowing access typically waits most of
// an access time for its slot: T_MSHRfree = T_DRAM·MSHRs/(MSHRs+1), leaving
// the waiting accesses a parallelism contribution of 1/(MSHRs+1) each.
func mshrCap(raw float64, prm Params) float64 {
	if prm.MSHRs <= 0 || raw <= float64(prm.MSHRs) {
		return raw
	}
	tdram := float64(prm.MemLatency)
	if tdram <= 0 {
		return float64(prm.MSHRs)
	}
	wait := raw - float64(prm.MSHRs)
	tfree := tdram * float64(prm.MSHRs) / float64(prm.MSHRs+1)
	return float64(prm.MSHRs) + wait*(tdram-tfree)/tdram
}

// BusLatency returns the average per-miss bus cycles under MLP′ concurrent
// accesses (Equation 4.5): the i-th concurrent miss waits i transfer slots,
// so the average is (MLP′+1)/2 × c_transfer.
func BusLatency(mlpPrime float64, busPerLine int) float64 {
	if mlpPrime < 1 {
		mlpPrime = 1
	}
	return (mlpPrime + 1) / 2 * float64(busPerLine)
}

// RescaleForStores widens the load MLP to account for store misses on the
// memory bus (Equation 4.6).
func RescaleForStores(mlp, loadMisses, storeMisses float64) float64 {
	if loadMisses <= 0 {
		return mlp
	}
	return mlp * (loadMisses + storeMisses) / loadMisses
}

// microLoadDeps returns the micro-trace's own f(ℓ) histogram at profiled-ROB
// index idx (as Options.ROBIndexFor returns it), falling back to the
// profile aggregate.
func microLoadDeps(p *profiler.Profile, m *profiler.Micro, idx int) *stats.Histogram {
	if idx >= 0 && idx < len(m.LoadDeps) && m.LoadDeps[idx] != nil && m.LoadDeps[idx].Total() > 0 {
		return m.LoadDeps[idx]
	}
	return p.LoadDepHistAt(max(idx, 0))
}

// coldMissMLP implements Equations 4.1-4.3. Cold misses locate the bursts;
// capacity/conflict misses are assumed uniformly spread over the loads.
func coldMissMLP(p *profiler.Profile, m *profiler.Micro, curve *statstack.Curve, prm Params) float64 {
	mllc := statstack.MissRatioForMicro(curve, m, prm.LLCLines)
	if mllc <= 0 || m.LoadCount == 0 {
		return 1
	}
	// Split the micro-trace's misses into cold and capacity/conflict.
	totalMisses := mllc * float64(m.LoadCount)
	coldMisses := float64(m.ColdLoads)
	if coldMisses > totalMisses {
		coldMisses = totalMisses
	}
	cfMisses := totalMisses - coldMisses
	cfRate := cfMisses / float64(m.LoadCount)

	f := microLoadDeps(p, m, p.Opts.ROBIndexFor(prm.ROB))
	if f.Total() == 0 {
		return 1
	}
	mColdROB := p.ColdMissAvgPerROB(prm.ROB)
	loadsPerROB := prm.LoadFrac * float64(prm.ROB)

	// Σ_ℓ (1-M)^(ℓ-1) f(ℓ) — the probability that a load at depth ℓ is
	// an independent miss.
	indep := 0.0
	for _, l := range f.Keys() {
		indep += math.Pow(1-mllc, float64(l-1)) * f.Fraction(l)
	}
	mlpCold := indep * mColdROB           // Eq 4.1
	mlpCf := indep * cfRate * loadsPerROB // Eq 4.2
	if totalMisses <= 0 {
		return 1
	}
	mlp := (cfMisses/totalMisses)*mlpCf + (coldMisses/totalMisses)*mlpCold // Eq 4.3
	if mlp < 1 {
		mlp = 1
	}
	return mlp
}
