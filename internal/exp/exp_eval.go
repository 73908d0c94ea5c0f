package exp

import (
	"fmt"
	"io"

	"mipp"
	"mipp/api"
	"mipp/internal/config"
	"mipp/internal/perf"
	"mipp/internal/power"
	"mipp/internal/stats"
)

func init() {
	register("tab6.1", "Reference architecture (Table 6.1)", tab6x1)
	register("fig6.1", "CPI stacks: model vs simulator (Figure 6.1)", fig6x1)
	register("fig6.3", "Prediction error vs instructions profiled (Figure 6.3)", fig6x3)
	register("tab6.2", "Error per micro-architecture independent input (Table 6.2)", tab6x2)
	register("tab6.3", "Design space (Table 6.3)", tab6x3)
	register("fig6.4", "Separate vs combined micro-trace evaluation (Figure 6.4)", fig6x4)
	register("fig6.5", "Performance error across the design space (Figure 6.5)", fig6x5)
	register("fig6.6", "Model CPI vs simulated CPI scatter (Figure 6.6)", fig6x6)
	register("fig6.7", "Power stacks: model vs simulator (Figure 6.7)", fig6x7)
	register("fig6.8", "Power error CDF (Figure 6.8)", fig6x8)
	register("fig6.9", "Power error across the design space (Figure 6.9)", fig6x9)
	register("fig6.10", "Model power vs simulated power scatter (Figure 6.10)", fig6x10)
	register("fig6.11", "Base component over time: gamess & gromacs (Figure 6.11)", fig6x11)
	register("fig6.12", "DRAM component over time: milc & mcf (Figure 6.12)", fig6x12)
	register("fig6.13", "gromacs: reference vs low-power core (Figure 6.13)", fig6x13)
	register("fig6.14", "Phase analysis: astar, bzip2, cactusADM (Figure 6.14)", fig6x14)
}

func tab6x1(s *Suite, w io.Writer) {
	header(w, "reference architecture")
	fmt.Fprintln(w, config.Reference().String())
}

func fig6x1(s *Suite, w io.Writer) {
	header(w, "CPI stacks (per instruction): simulator | model")
	cfg := config.Reference()
	var errs []float64
	for _, name := range s.Workloads {
		sim := s.Sim(name, cfg, s.N)
		res := s.Predict(name, cfg, s.N)
		ss := sim.Stack.PerInstruction(sim.Instructions)
		ms := res.Stack.PerInstruction(int64(res.Instructions))
		e := stats.AbsErr(res.Cycles, float64(sim.Cycles))
		errs = append(errs, e)
		fmt.Fprintf(w, "%-12s sim[%s] model[%s] err=%.1f%%\n", name, stackRow(&ss), stackRow(&ms), e*100)
	}
	fmt.Fprintf(w, "average CPI error %.1f%%\n", stats.Mean(errs)*100)
}

func stackRow(s *perf.CPIStack) string {
	return fmt.Sprintf("base=%.2f br=%.2f ic=%.2f llc=%.2f dram=%.2f tot=%.2f",
		s.Cycles[perf.Base], s.Cycles[perf.BranchComp], s.Cycles[perf.ICache],
		s.Cycles[perf.LLCHit], s.Cycles[perf.DRAM], s.Total())
}

func fig6x3(s *Suite, w io.Writer) {
	header(w, "CPI error vs fraction of instructions profiled")
	cfg := config.Reference()
	rates := []struct {
		micro, window int
	}{
		{500, 20000}, {1000, 10000}, {1000, 5000}, {2000, 4000}, {2000, 2000},
	}
	for _, r := range rates {
		var errs []float64
		for _, name := range s.Workloads {
			sim := s.Sim(name, cfg, s.N)
			st := s.Stream(name, s.N)
			p := mipp.NewProfiler(mipp.WithMicroTrace(r.micro, r.window)).ProfileStream(st)
			pd, err := mipp.NewPredictor(p)
			if err != nil {
				panic(err)
			}
			res, err := pd.Predict(cfg)
			if err != nil {
				panic(err)
			}
			errs = append(errs, stats.AbsErr(res.Cycles, float64(sim.Cycles)))
		}
		fmt.Fprintf(w, "sample %4d/%5d (%.1f%% profiled): avg err %.1f%%\n",
			r.micro, r.window, float64(r.micro)/float64(r.window)*100, stats.Mean(errs)*100)
	}
}

func tab6x2(s *Suite, w io.Writer) {
	header(w, "error when replacing simulated inputs with micro-architecture independent ones")
	cfg := config.Reference()
	variants := []struct {
		name string
		spec func(simRate float64) api.PredictorSpec
	}{
		{"simulated branch missrate + stride MLP", func(simRate float64) api.PredictorSpec {
			return api.PredictorSpec{BranchMissRate: &simRate}
		}},
		{"entropy branch model + stride MLP", func(float64) api.PredictorSpec { return api.PredictorSpec{} }},
		{"entropy branch model + cold-miss MLP", func(float64) api.PredictorSpec { return api.PredictorSpec{MLPMode: "cold-miss"} }},
		{"entropy branch model + no MLP", func(float64) api.PredictorSpec { return api.PredictorSpec{MLPMode: "none"} }},
	}
	for _, v := range variants {
		var errs []float64
		for _, name := range s.Workloads {
			sim := s.Sim(name, cfg, s.N)
			simRate := 0.0
			if sim.Branches > 0 {
				simRate = float64(sim.BranchMispredicts) / float64(sim.Branches)
			}
			res := s.PredictSpec(name, cfg, s.N, v.spec(simRate))
			errs = append(errs, stats.AbsErr(res.Cycles, float64(sim.Cycles)))
		}
		fmt.Fprintf(w, "%-42s avg=%5.1f%% max=%5.1f%%\n", v.name, stats.Mean(errs)*100, stats.Max(errs)*100)
	}
}

func tab6x3(s *Suite, w io.Writer) {
	header(w, "design space: 3^5 = 243 configurations")
	space := config.DesignSpace()
	fmt.Fprintf(w, "width {2,4,6} x ROB {64,128,256} x L2 {128,256,512KB} x L3 {2,4,8MB} x freq {2.0,2.66,3.33GHz}\n")
	fmt.Fprintf(w, "total configurations: %d\n", len(space))
	fmt.Fprintf(w, "first: %s\n", space[0].Name)
	fmt.Fprintf(w, "last:  %s\n", space[len(space)-1].Name)
}

func fig6x4(s *Suite, w io.Writer) {
	header(w, "CPI error CDF: per-micro-trace evaluation vs combined average profile")
	cfg := config.Reference()
	var sep, comb []float64
	for _, name := range s.Workloads {
		sim := s.Sim(name, cfg, s.N)
		rs := s.Predict(name, cfg, s.N)
		rc := s.PredictSpec(name, cfg, s.N, api.PredictorSpec{Combined: true})
		sep = append(sep, stats.AbsErr(rs.Cycles, float64(sim.Cycles)))
		comb = append(comb, stats.AbsErr(rc.Cycles, float64(sim.Cycles)))
	}
	for _, lim := range []float64{0.05, 0.10, 0.20, 0.30, 0.50} {
		fmt.Fprintf(w, "<=%3.0f%%: separate %.0f%%  combined %.0f%% of benchmarks\n",
			lim*100, stats.FractionBelow(sep, lim)*100, stats.FractionBelow(comb, lim)*100)
	}
	fmt.Fprintf(w, "averages: separate %.1f%%, combined %.1f%%\n", stats.Mean(sep)*100, stats.Mean(comb)*100)
}

// designSpaceRuns evaluates a stratified design-space sample with both the
// simulator and the model (through the public Sweep path), shared by
// Figures 6.5-6.10.
func (s *Suite) designSpaceRuns(k, n int) (configs []*config.Config, simCPI, modCPI, simW, modW map[string][]float64) {
	configs = SpaceSample(k)
	simCPI = map[string][]float64{}
	modCPI = map[string][]float64{}
	simW = map[string][]float64{}
	modW = map[string][]float64{}
	for _, name := range s.Workloads {
		results := s.Sweep(name, configs, n)
		for i, cfg := range configs {
			sim := s.Sim(name, cfg, n)
			simCPI[name] = append(simCPI[name], sim.CPI())
			modCPI[name] = append(modCPI[name], results[i].CPI())
			simW[name] = append(simW[name], power.Estimate(cfg, &sim.Activity).Total())
			modW[name] = append(modW[name], results[i].Watts())
		}
	}
	return
}

const spaceStride = 13 // 243/13 ≈ 19 configs: every parameter value appears

func fig6x5(s *Suite, w io.Writer) {
	header(w, "performance error per benchmark across the design-space sample")
	_, simCPI, modCPI, _, _ := s.designSpaceRuns(spaceStride, s.N/3)
	var all []float64
	for _, name := range s.Workloads {
		var errs []float64
		for i := range simCPI[name] {
			errs = append(errs, stats.AbsErr(modCPI[name][i], simCPI[name][i]))
		}
		all = append(all, errs...)
		b := stats.Box(errs)
		fmt.Fprintf(w, "%-12s mean=%5.1f%% med=%5.1f%% q1=%5.1f%% q3=%5.1f%% max=%5.1f%%\n",
			name, b.Mean*100, b.Median*100, b.Q1*100, b.Q3*100, b.Hi*100)
	}
	fmt.Fprintf(w, "overall average %.1f%%\n", stats.Mean(all)*100)
}

func fig6x6(s *Suite, w io.Writer) {
	header(w, "scatter: simulated CPI vs model CPI (design-space sample)")
	configs, simCPI, modCPI, _, _ := s.designSpaceRuns(spaceStride, s.N/3)
	for _, name := range s.Workloads {
		for i := range configs {
			fmt.Fprintf(w, "%s,%s,%.4f,%.4f\n", name, configs[i].Name, simCPI[name][i], modCPI[name][i])
		}
	}
}

func fig6x7(s *Suite, w io.Writer) {
	header(w, "power stacks: simulator-activity vs model-activity (reference arch)")
	cfg := config.Reference()
	var errs []float64
	for _, name := range s.Workloads {
		sim := s.Sim(name, cfg, s.N)
		res := s.Predict(name, cfg, s.N)
		ps := power.Estimate(cfg, &sim.Activity)
		pm := res.Power
		e := stats.AbsErr(pm.Total(), ps.Total())
		errs = append(errs, e)
		fmt.Fprintf(w, "%-12s sim=%s\n             mod=%s err=%.1f%%\n", name, ps.String(), pm.String(), e*100)
	}
	fmt.Fprintf(w, "average power error %.1f%%\n", stats.Mean(errs)*100)
}

func fig6x8(s *Suite, w io.Writer) {
	header(w, "power error CDF across the design-space sample")
	_, _, _, simW, modW := s.designSpaceRuns(spaceStride, s.N/3)
	var errs []float64
	for _, name := range s.Workloads {
		for i := range simW[name] {
			errs = append(errs, stats.AbsErr(modW[name][i], simW[name][i]))
		}
	}
	for _, lim := range []float64{0.02, 0.05, 0.10, 0.20} {
		fmt.Fprintf(w, "<=%3.0f%%: %.0f%% of predictions\n", lim*100, stats.FractionBelow(errs, lim)*100)
	}
	fmt.Fprintf(w, "average %.1f%%\n", stats.Mean(errs)*100)
}

func fig6x9(s *Suite, w io.Writer) {
	header(w, "power error per benchmark across the design-space sample")
	_, _, _, simW, modW := s.designSpaceRuns(spaceStride, s.N/3)
	var all []float64
	for _, name := range s.Workloads {
		var errs []float64
		for i := range simW[name] {
			errs = append(errs, stats.AbsErr(modW[name][i], simW[name][i]))
		}
		all = append(all, errs...)
		b := stats.Box(errs)
		fmt.Fprintf(w, "%-12s mean=%5.1f%% med=%5.1f%% max=%5.1f%%\n", name, b.Mean*100, b.Median*100, b.Hi*100)
	}
	fmt.Fprintf(w, "overall average %.1f%%\n", stats.Mean(all)*100)
}

func fig6x10(s *Suite, w io.Writer) {
	header(w, "scatter: simulated power vs model power (design-space sample)")
	configs, _, _, simW, modW := s.designSpaceRuns(spaceStride, s.N/3)
	for _, name := range s.Workloads {
		for i := range configs {
			fmt.Fprintf(w, "%s,%s,%.3f,%.3f\n", name, configs[i].Name, simW[name][i], modW[name][i])
		}
	}
}

// phaseCompare prints per-window CPI for simulator and model.
func phaseCompare(s *Suite, w io.Writer, name string, cfg *config.Config) {
	st := s.Stream(name, s.N)
	win := s.N / 25
	sim, err := simWithWindows(cfg, st, win)
	if err != nil {
		panic(err)
	}
	res := s.Predict(name, cfg, s.N)
	simCPI := sim.WindowCPI(win)
	upi := res.Uops / res.Instructions
	var modSeries []float64
	for i := range simCPI {
		k := i * len(res.MicroCPI) / len(simCPI)
		if k < len(res.MicroCPI) {
			modSeries = append(modSeries, res.MicroCPI[k]*upi)
		}
	}
	pac := stats.Pearson(simCPI[:len(modSeries)], modSeries)
	fmt.Fprintf(w, "%s on %s: phase-accuracy coefficient (Pearson) = %.3f\n", name, cfg.Name, pac)
	for i := range modSeries {
		fmt.Fprintf(w, "  window %2d sim=%.3f model=%.3f\n", i, simCPI[i], modSeries[i])
	}
}

func fig6x11(s *Suite, w io.Writer) {
	header(w, "base-component phase view: gamess, gromacs")
	cfg := config.Reference()
	phaseCompare(s, w, "gamess", cfg)
	phaseCompare(s, w, "gromacs", cfg)
}

func fig6x12(s *Suite, w io.Writer) {
	header(w, "DRAM-component phase view: milc, mcf")
	cfg := config.Reference()
	phaseCompare(s, w, "milc", cfg)
	phaseCompare(s, w, "mcf", cfg)
}

func fig6x13(s *Suite, w io.Writer) {
	header(w, "gromacs: reference vs low-power core")
	phaseCompare(s, w, "gromacs", config.Reference())
	phaseCompare(s, w, "gromacs", config.LowPower())
}

func fig6x14(s *Suite, w io.Writer) {
	header(w, "phase graphs: astar, bzip2, cactusADM")
	cfg := config.Reference()
	for _, name := range []string{"astar", "bzip2", "cactusADM"} {
		phaseCompare(s, w, name, cfg)
	}
}
