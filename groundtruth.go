package mipp

import (
	"context"
	"fmt"

	"mipp/fidelity"
	"mipp/internal/power"
)

// ModelMeasurement lowers an analytical prediction into the fidelity
// package's comparison form: total CPI with its per-instruction component
// stack, total watts with its component stack. Both sides of a fidelity
// pair normalize the same way, so components subtract unit-for-unit.
func ModelMeasurement(r *Result) fidelity.Measurement {
	m := fidelity.Measurement{CPI: r.CPI(), Watts: r.Watts()}
	if r.Instructions > 0 {
		m.CPIStack = fidelity.CPIStack{
			Base:   r.Stack.Cycles[CPIBase] / r.Instructions,
			Branch: r.Stack.Cycles[CPIBranch] / r.Instructions,
			ICache: r.Stack.Cycles[CPIICache] / r.Instructions,
			LLCHit: r.Stack.Cycles[CPILLCHit] / r.Instructions,
			DRAM:   r.Stack.Cycles[CPIDRAM] / r.Instructions,
		}
	}
	m.Power = powerMeasurement(r.Power)
	return m
}

// SimMeasurement lowers a reference-simulation result into the same form.
// The power side runs the same power model the predictor uses, fed with
// the simulator's measured activity factors — so the power residual
// isolates the activity-prediction error, exactly the quantity the model
// owns (the power model itself is shared and cancels out).
func SimMeasurement(cfg *Config, r *SimResult) fidelity.Measurement {
	m := fidelity.Measurement{}
	if r.Instructions > 0 {
		m.CPI = float64(r.Cycles) / float64(r.Instructions)
		st := r.Stack.PerInstruction(r.Instructions)
		m.CPIStack = fidelity.CPIStack{
			Base:   st.Cycles[CPIBase],
			Branch: st.Cycles[CPIBranch],
			ICache: st.Cycles[CPIICache],
			LLCHit: st.Cycles[CPILLCHit],
			DRAM:   st.Cycles[CPIDRAM],
		}
	}
	p := EstimatePower(cfg, &r.Activity)
	m.Power = powerMeasurement(p)
	m.Watts = p.Total()
	return m
}

func powerMeasurement(p PowerStack) fidelity.PowerStack {
	return fidelity.PowerStack{
		Static: p.Watts[power.Static],
		Core:   p.Watts[power.CoreDyn],
		FU:     p.Watts[power.FUDyn],
		Cache:  p.Watts[power.CacheDyn],
		DRAM:   p.Watts[power.DRAMDyn],
		BPred:  p.Watts[power.BPredDyn],
	}
}

// SimGroundTruth is the fidelity.GroundTruth backed by the cycle-level
// reference simulator: it resolves the workload's profile from the engine,
// rebuilds the stream that profile was collected from (Profile.Stream), and
// runs SimulateContext on the requested configuration. A profile that
// cannot be replayed fails with ErrNotReplayable rather than being measured
// on some other stream.
type SimGroundTruth struct {
	resolve func(ctx context.Context, name string) (*Profile, error)
}

// NewSimGroundTruth builds a simulator ground truth over the engine's
// registered profiles.
func NewSimGroundTruth(e *Engine) *SimGroundTruth {
	return &SimGroundTruth{resolve: e.resolveProfileCtx}
}

// GroundTruth implements fidelity.GroundTruth.
func (g *SimGroundTruth) GroundTruth(ctx context.Context, workload string, cfg *Config) (fidelity.Measurement, error) {
	p, err := g.resolve(ctx, workload)
	if err != nil {
		return fidelity.Measurement{}, err
	}
	stream, err := p.Stream()
	if err != nil {
		return fidelity.Measurement{}, fmt.Errorf("mipp: fidelity ground truth for %q: %w", workload, err)
	}
	res, err := SimulateContext(ctx, cfg, stream, SimOptions{})
	if err != nil {
		return fidelity.Measurement{}, err
	}
	return SimMeasurement(cfg, res), nil
}

var _ fidelity.GroundTruth = (*SimGroundTruth)(nil)
