package core

import (
	"fmt"
	"testing"

	"mipp/internal/config"
	"mipp/internal/mlp"
	"mipp/internal/ooo"
	"mipp/internal/perf"
	"mipp/internal/profiler"
	"mipp/internal/stats"
	"mipp/internal/workload"
)

// TestModelVsSimulatorReference is the headline validation (§6.2.1): the
// micro-architecture independent model against the cycle-level simulator on
// the reference architecture, across the whole suite. The paper reports a
// 7.6% average CPI error against Sniper on SPEC; on our synthetic substrate
// we assert the same order of accuracy: average below 30%, no benchmark
// beyond 75% (predicted LLC miss counts match the simulator within a few
// percent — see EXPERIMENTS.md — so the residual is MLP/overlap modeling).
func TestModelVsSimulatorReference(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation")
	}
	const n = 300_000
	cfg := config.Reference()
	var errs []float64
	for _, name := range workload.Names() {
		s := workload.MustGenerate(name, n, 0)
		sim, err := ooo.Simulate(cfg, s, ooo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := profiler.Run(s, profiler.Options{})
		mod := evaluate(Compile(p, nil, DefaultOptions()), cfg)
		e := stats.AbsErr(mod.Cycles, float64(sim.Cycles))
		errs = append(errs, e)
		simStack := sim.Stack.PerInstruction(sim.Instructions)
		modStack := mod.Stack.PerInstruction(int64(mod.Instructions))
		fmt.Printf("%-12s simCPI=%6.3f modCPI=%6.3f err=%5.1f%%  sim[b=%.2f br=%.2f llc=%.2f dram=%.2f] mod[b=%.2f br=%.2f llc=%.2f dram=%.2f] mlp(sim=%.2f mod=%.2f)\n",
			name, sim.CPI(), mod.CPI(), e*100,
			simStack.Cycles[perf.Base], simStack.Cycles[perf.BranchComp], simStack.Cycles[perf.LLCHit], simStack.Cycles[perf.DRAM],
			modStack.Cycles[perf.Base], modStack.Cycles[perf.BranchComp], modStack.Cycles[perf.LLCHit], modStack.Cycles[perf.DRAM],
			sim.MLP, mod.MLP)
		if e > 0.75 {
			t.Errorf("%s: model error %.1f%% beyond 75%%", name, e*100)
		}
	}
	mean := stats.Mean(errs)
	fmt.Printf("average CPI error: %.1f%%\n", mean*100)
	if mean > 0.30 {
		t.Errorf("average model error %.1f%% beyond 30%%", mean*100)
	}
}

// TestNoMLPHurts reproduces Figure 4.3's takeaway: disabling MLP modeling
// inflates predicted memory time substantially for MLP-rich workloads.
func TestNoMLPHurts(t *testing.T) {
	s := workload.MustGenerate("libquantum", 150_000, 0)
	p := profiler.Run(s, profiler.Options{})
	cfg := config.Reference()
	with := evaluate(Compile(p, nil, DefaultOptions()), cfg)
	opts := DefaultOptions()
	opts.MLPMode = mlp.None
	without := evaluate(Compile(p, nil, opts), cfg)
	if without.Cycles <= with.Cycles*1.3 {
		t.Errorf("no-MLP prediction %.0f not much slower than with MLP %.0f", without.Cycles, with.Cycles)
	}
}
