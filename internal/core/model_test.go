package core

import (
	"testing"

	"mipp/internal/config"
	"mipp/internal/mlp"
	"mipp/internal/profiler"
	"mipp/internal/trace"
	"mipp/internal/workload"
)

func profileFor(t *testing.T, name string, n int) *profiler.Profile {
	t.Helper()
	return profiler.Run(workload.MustGenerate(name, n, 0), profiler.Options{})
}

func TestEvaluateBasicInvariants(t *testing.T) {
	cfg := config.Reference()
	for _, name := range []string{"gamess", "mcf", "gcc"} {
		res := evaluate(Compile(profileFor(t, name, 60_000), nil, DefaultOptions()), cfg)
		if res.Cycles <= 0 {
			t.Fatalf("%s: non-positive cycles", name)
		}
		for c, v := range res.Stack.Cycles {
			if v < 0 {
				t.Errorf("%s: negative stack component %d: %v", name, c, v)
			}
		}
		if res.Deff <= 0 || res.Deff > float64(cfg.DispatchWidth)+1e-9 {
			t.Errorf("%s: Deff %.3f out of (0, D]", name, res.Deff)
		}
		if res.MLP < 1 {
			t.Errorf("%s: MLP %.3f < 1", name, res.MLP)
		}
		if res.BranchMissRate < 0 || res.BranchMissRate > 1 {
			t.Errorf("%s: branch missrate %v", name, res.BranchMissRate)
		}
	}
}

func TestBiggerROBNeverSlowsMemoryBound(t *testing.T) {
	c := Compile(profileFor(t, "libquantum", 60_000), nil, DefaultOptions())
	small := config.Reference()
	small.ROB = 64
	small.IQ = 18
	small.Name = "rob64"
	big := config.Reference()
	big.ROB = 256
	big.IQ = 72
	big.Name = "rob256"
	rs := evaluate(c, small)
	rb := evaluate(c, big)
	if rb.Cycles > rs.Cycles {
		t.Errorf("bigger ROB predicted slower: %0.f vs %0.f", rb.Cycles, rs.Cycles)
	}
}

func TestWiderCoreRaisesDispatchBound(t *testing.T) {
	// With contention modeling disabled (pure N/D base), the width must
	// set the base component directly. The suite's workloads are mostly
	// backend-bound, where width is correctly predicted to matter little.
	o := DefaultOptions()
	o.DispatchModel = DispatchUops
	c := Compile(profileFor(t, "hmmer", 60_000), nil, o)
	narrow := config.Reference()
	narrow.DispatchWidth = 2
	narrow.Name = "w2"
	wide := config.Reference()
	rn := evaluate(c, narrow)
	rw := evaluate(c, wide)
	if rn.Stack.Cycles[0] < rw.Stack.Cycles[0]*1.9 {
		t.Errorf("2-wide base %.0f should be ~2x the 4-wide base %.0f", rn.Stack.Cycles[0], rw.Stack.Cycles[0])
	}
}

func TestBiggerLLCReducesMemoryTime(t *testing.T) {
	c := Compile(profileFor(t, "omnetpp", 60_000), nil, DefaultOptions())
	small := config.Reference()
	small.L3.SizeBytes = 2 << 20
	small.Name = "llc2m"
	big := config.Reference()
	big.L3.SizeBytes = 8 << 20
	big.Name = "llc8m"
	rs := evaluate(c, small)
	rb := evaluate(c, big)
	if rb.LLCLoadMisses > rs.LLCLoadMisses {
		t.Errorf("bigger LLC predicted more misses: %.0f vs %.0f", rb.LLCLoadMisses, rs.LLCLoadMisses)
	}
}

func TestDispatchModelRefinementMonotone(t *testing.T) {
	// Adding contention terms can only lower the dispatch rate, i.e.,
	// raise the predicted base cycles.
	p := profileFor(t, "povray", 60_000)
	cfg := config.Reference()
	prev := -1.0
	for _, dm := range []DispatchModel{DispatchUops, DispatchCritical, DispatchFull} {
		o := DefaultOptions()
		o.DispatchModel = dm
		base := evaluate(Compile(p, nil, o), cfg).Stack.Cycles[0]
		if base < prev-1e-6 {
			t.Errorf("dispatch model %d lowered base cycles: %v -> %v", dm, prev, base)
		}
		prev = base
	}
}

func TestCombinedModeRuns(t *testing.T) {
	o := DefaultOptions()
	o.Combined = true
	res := evaluate(Compile(profileFor(t, "gcc", 60_000), nil, o), config.Reference())
	if res.Cycles <= 0 {
		t.Fatal("combined mode produced no cycles")
	}
	if len(res.MicroCPI) != 1 {
		t.Errorf("combined mode should evaluate one pseudo-trace, got %d", len(res.MicroCPI))
	}
}

func TestBranchMissRateOverride(t *testing.T) {
	p := profileFor(t, "gobmk", 60_000)
	cfg := config.Reference()
	o := DefaultOptions()
	o.BranchMissRate = 0
	zero := evaluate(Compile(p, nil, o), cfg)
	o.BranchMissRate = 0.5
	half := evaluate(Compile(p, nil, o), cfg)
	if half.Cycles <= zero.Cycles {
		t.Errorf("50%% misprediction should cost cycles: %.0f vs %.0f", half.Cycles, zero.Cycles)
	}
	if zero.Stack.Cycles[1] != 0 { // perf.BranchComp
		t.Errorf("zero missrate still shows branch cycles: %v", zero.Stack.Cycles[1])
	}
}

func TestMLPModesOrdering(t *testing.T) {
	p := profileFor(t, "libquantum", 60_000)
	cfg := config.Reference()
	off := DefaultOptions()
	off.MLPMode = mlp.None
	if evaluate(Compile(p, nil, off), cfg).Cycles <= evaluate(Compile(p, nil, DefaultOptions()), cfg).Cycles {
		t.Error("disabling MLP should not speed up a streaming workload")
	}
}

// effectiveDispatch computes Deff and its limiter for one mix the way the
// kernel does: contention bounds first, then the Eq 3.10 combine.
func effectiveDispatch(mix [trace.NumClasses]float64, cfg *config.Config, lat, cp float64, dm DispatchModel) (float64, int) {
	var scr scratch
	portD, unitD := effectiveDispatchLimits(mix, cfg, &scr)
	return effectiveDispatchFrom(cfg, lat, cp, dm, portD, unitD)
}

func TestEffectiveDispatchPortLimit(t *testing.T) {
	// A pure-load mix on the reference core is limited by the single
	// load port: Deff = 1/loadfrac.
	var mix [trace.NumClasses]float64
	mix[trace.Load] = 0.4
	mix[trace.IntALU] = 0.6
	cfg := config.Reference()
	deff, limiter := effectiveDispatch(mix, cfg, 1.0, 1.0, DispatchFull)
	if deff > 2.51 || deff < 2.0 {
		t.Errorf("Deff = %.2f, want 2.5 (load-port bound, §3.4 example)", deff)
	}
	if limiter != 2 && limiter != 3 {
		t.Errorf("limiter = %d, want port/unit", limiter)
	}
}

func TestEffectiveDispatchNonPipelinedDivider(t *testing.T) {
	// §3.4's second example: 10% divides on a 20-cycle non-pipelined
	// divider limit Deff to U/(f*lat) = 1/(0.1*20) = 0.5.
	var mix [trace.NumClasses]float64
	mix[trace.IntDiv] = 0.1
	mix[trace.IntALU] = 0.9
	cfg := config.Reference()
	deff, limiter := effectiveDispatch(mix, cfg, 1.0, 1.0, DispatchFull)
	if deff > 0.51 || deff < 0.49 {
		t.Errorf("Deff = %.3f, want 0.5 (non-pipelined divider bound)", deff)
	}
	if limiter != 3 {
		t.Errorf("limiter = %d, want unit (3)", limiter)
	}
}
