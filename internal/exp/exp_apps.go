package exp

import (
	"fmt"
	"io"

	"mipp"
	"mipp/internal/config"
	"mipp/internal/dse"
	"mipp/internal/empirical"
	"mipp/internal/power"
	"mipp/internal/stats"
)

func init() {
	register("fig7.1", "Improving libquantum performance (Figure 7.1)", fig7x1)
	register("fig7.2", "General-purpose vs application-specific core (Figure 7.2)", fig7x2)
	register("tab7.1", "Optimal configs under power constraints (Table 7.1)", tab7x1)
	register("tab7.2", "DVFS settings (Table 7.2)", tab7x2)
	register("fig7.3", "ED2P vs frequency: model vs simulator (Figure 7.3)", fig7x3)
	register("fig7.4", "Pareto frontiers: bzip2, calculix, gromacs, xalancbmk (Figures 7.4-7.5)", fig7x4)
	register("fig7.6", "Design-space perf/power error (Figure 7.6)", fig7x6)
	register("fig7.7", "Pareto filter: sensitivity/specificity/accuracy (Figure 7.7)", fig7x7)
	register("fig7.9", "Pareto filter: hypervolume ratio (Figure 7.9)", fig7x9)
	register("fig7.10", "Pareto fronts: mechanistic vs empirical model (Figure 7.10)", fig7x10)
	register("fig7.11", "Pruning metrics: mechanistic vs empirical (Figures 7.11-7.13)", fig7x11)
}

// fig7x1 plays the §7.1 what-if game on libquantum: widen the structures
// that the CPI stack says matter.
func fig7x1(s *Suite, w io.Writer) {
	header(w, "libquantum what-if: model-predicted CPI per modification")
	base := config.Reference()
	steps := []struct {
		name string
		mod  func(*config.Config)
	}{
		{"reference", func(*config.Config) {}},
		{"2x ROB (256)", func(c *config.Config) { c.ROB = 256; c.IQ = 72; c.LSQ = 128 }},
		{"+ 2x MSHRs (20)", func(c *config.Config) { c.ROB = 256; c.IQ = 72; c.LSQ = 128; c.MSHRs = 20 }},
		{"+ 2x memory bus", func(c *config.Config) {
			c.ROB = 256
			c.IQ = 72
			c.LSQ = 128
			c.MSHRs = 20
			c.BusNSPerLine /= 2
		}},
		{"+ stride prefetcher", func(c *config.Config) {
			c.ROB = 256
			c.IQ = 72
			c.LSQ = 128
			c.MSHRs = 20
			c.BusNSPerLine /= 2
			c.Prefetcher.Enabled = true
		}},
	}
	for _, step := range steps {
		cfg := *base
		step.mod(&cfg)
		cfg.Name = step.name
		res := s.Predict("libquantum", &cfg, s.N)
		fmt.Fprintf(w, "%-22s CPI=%.3f (MLP=%.2f)\n", step.name, res.CPI(), res.MLP)
	}
}

func fig7x2(s *Suite, w io.Writer) {
	header(w, "general-purpose core vs per-application core (model-selected)")
	configs := SpaceSample(spaceStride)
	n := s.N / 3
	// Model-predicted CPI for every (workload, config), via the public
	// concurrent sweep.
	cpi := make(map[string][]float64)
	for _, name := range s.Workloads {
		for _, res := range s.Sweep(name, configs, n) {
			cpi[name] = append(cpi[name], res.CPI())
		}
	}
	// General-purpose pick: best average CPI across workloads.
	bestAvg, bestIdx := 1e18, 0
	for i := range configs {
		sum := 0.0
		for _, name := range s.Workloads {
			sum += cpi[name][i]
		}
		if sum < bestAvg {
			bestAvg, bestIdx = sum, i
		}
	}
	var genSum, appSum float64
	for _, name := range s.Workloads {
		app := stats.Min(cpi[name])
		gen := cpi[name][bestIdx]
		genSum += gen
		appSum += app
		fmt.Fprintf(w, "%-12s general=%.3f app-specific=%.3f (gain %.0f%%)\n",
			name, gen, app, (1-app/gen)*100)
	}
	k := float64(len(s.Workloads))
	fmt.Fprintf(w, "general-purpose pick: %s, avg CPI %.3f vs app-specific %.3f\n",
		configs[bestIdx].Name, genSum/k, appSum/k)
}

func tab7x1(s *Suite, w io.Writer) {
	header(w, "fastest configuration under a power cap (model-predicted)")
	configs := SpaceSample(spaceStride)
	n := s.N / 3
	names := s.Workloads[:min(6, len(s.Workloads))]
	points := make(map[string][]mipp.Point, len(names))
	for _, name := range names {
		points[name] = mipp.Points(s.Sweep(name, configs, n))
	}
	for _, capW := range []float64{12, 18, 25} {
		fmt.Fprintf(w, "power cap %.0f W:\n", capW)
		for _, name := range names {
			if best, ok := mipp.BestUnderPowerCap(points[name], capW); ok {
				fmt.Fprintf(w, "  %-12s %-32s time=%.4fs power=%.1fW\n", name, best.Config, best.Time, best.Power)
			} else {
				fmt.Fprintf(w, "  %-12s no configuration fits\n", name)
			}
		}
	}
}

func tab7x2(s *Suite, w io.Writer) {
	header(w, "Nehalem-based DVFS settings")
	for _, p := range config.DVFSPoints() {
		fmt.Fprintf(w, "%.2f GHz @ %.2f V\n", p.FrequencyGHz, p.VoltageV)
	}
}

func fig7x3(s *Suite, w io.Writer) {
	header(w, "ED2P vs DVFS point: simulator vs model (subset of workloads)")
	base := config.Reference()
	for _, name := range []string{"gamess", "mcf", "libquantum", "gcc"} {
		fmt.Fprintf(w, "%s:\n", name)
		var bestSim, bestMod float64
		var bestSimF, bestModF float64
		bestSim, bestMod = 1e18, 1e18
		for _, pt := range config.DVFSPoints() {
			cfg := config.WithDVFS(base, pt)
			sim := s.Sim(name, cfg, s.N)
			res := s.Predict(name, cfg, s.N)
			simT := sim.TimeSeconds(cfg.FrequencyGHz)
			simE := power.ED2P(power.Estimate(cfg, &sim.Activity), simT)
			modE := res.ED2P()
			fmt.Fprintf(w, "  %.2f GHz: sim ED2P=%.3e, model ED2P=%.3e\n", pt.FrequencyGHz, simE, modE)
			if simE < bestSim {
				bestSim, bestSimF = simE, pt.FrequencyGHz
			}
			if modE < bestMod {
				bestMod, bestModF = modE, pt.FrequencyGHz
			}
		}
		fmt.Fprintf(w, "  optimum: sim %.2f GHz, model %.2f GHz\n", bestSimF, bestModF)
	}
}

// spacePoints evaluates (time, power) for the design-space sample with the
// simulator (actual) and the analytical model (predicted, via the public
// concurrent Sweep).
func (s *Suite) spacePoints(name string, configs []*config.Config, n int) (pred, act []dse.Point) {
	pred = mipp.Points(s.Sweep(name, configs, n))
	for _, cfg := range configs {
		sim := s.Sim(name, cfg, n)
		act = append(act, dse.Point{
			Config: cfg.Name,
			Time:   sim.TimeSeconds(cfg.FrequencyGHz),
			Power:  power.Estimate(cfg, &sim.Activity).Total(),
		})
	}
	return pred, act
}

func fig7x4(s *Suite, w io.Writer) {
	header(w, "Pareto frontiers: predicted picks vs actual front")
	configs := SpaceSample(spaceStride)
	n := s.N / 3
	for _, name := range []string{"bzip2", "calculix", "gromacs", "xalancbmk"} {
		pred, act := s.spacePoints(name, configs, n)
		fmt.Fprintf(w, "%s actual front:\n", name)
		for _, p := range dse.ParetoFront(act) {
			fmt.Fprintf(w, "  %-34s time=%.5fs power=%.1fW\n", p.Config, p.Time, p.Power)
		}
		fmt.Fprintf(w, "%s predicted front:\n", name)
		for _, p := range dse.ParetoFront(pred) {
			fmt.Fprintf(w, "  %-34s time=%.5fs power=%.1fW\n", p.Config, p.Time, p.Power)
		}
	}
}

func fig7x6(s *Suite, w io.Writer) {
	header(w, "design-space average errors per benchmark (perf / power)")
	configs := SpaceSample(spaceStride)
	n := s.N / 3
	var allP, allW []float64
	for _, name := range s.Workloads {
		pred, act := s.spacePoints(name, configs, n)
		var pe, we []float64
		for i := range pred {
			pe = append(pe, stats.AbsErr(pred[i].Time, act[i].Time))
			we = append(we, stats.AbsErr(pred[i].Power, act[i].Power))
		}
		allP = append(allP, pe...)
		allW = append(allW, we...)
		fmt.Fprintf(w, "%-12s perf=%5.1f%% power=%5.1f%%\n", name, stats.Mean(pe)*100, stats.Mean(we)*100)
	}
	fmt.Fprintf(w, "overall: perf=%.1f%% power=%.1f%%\n", stats.Mean(allP)*100, stats.Mean(allW)*100)
}

func paretoMetrics(s *Suite, w io.Writer, emitHVROnly bool) {
	configs := SpaceSample(spaceStride)
	n := s.N / 3
	var sens, spec, acc, hvr []float64
	for _, name := range s.Workloads {
		pred, act := s.spacePoints(name, configs, n)
		m := dse.Evaluate(pred, act)
		sens = append(sens, m.Sensitivity)
		spec = append(spec, m.Specificity)
		acc = append(acc, m.Accuracy)
		hvr = append(hvr, m.HVR)
		if emitHVROnly {
			fmt.Fprintf(w, "%-12s HVR=%.3f\n", name, m.HVR)
		} else {
			fmt.Fprintf(w, "%-12s sens=%.2f spec=%.2f acc=%.2f\n", name, m.Sensitivity, m.Specificity, m.Accuracy)
		}
	}
	if emitHVROnly {
		fmt.Fprintf(w, "average HVR %.3f\n", stats.Mean(hvr))
	} else {
		fmt.Fprintf(w, "averages: sensitivity=%.3f specificity=%.3f accuracy=%.3f\n",
			stats.Mean(sens), stats.Mean(spec), stats.Mean(acc))
	}
}

func fig7x7(s *Suite, w io.Writer) {
	header(w, "Pareto filter quality")
	paretoMetrics(s, w, false)
}

func fig7x9(s *Suite, w io.Writer) {
	header(w, "Pareto filter hypervolume ratio")
	paretoMetrics(s, w, true)
}

// empiricalPoints trains the §7.5 regression on a subset of simulated
// configurations and predicts the rest.
func (s *Suite) empiricalPoints(name string, configs []*config.Config, n int, act []dse.Point) ([]dse.Point, error) {
	var xs [][]float64
	var yt, yp []float64
	// Train on every second configuration (the paper trains on a sampled
	// subset of simulation results).
	for i := 0; i < len(configs); i += 2 {
		xs = append(xs, empirical.Features(configs[i]))
		yt = append(yt, act[i].Time)
		yp = append(yp, act[i].Power)
	}
	mt, err := empirical.Train(xs, yt, 1e-3)
	if err != nil {
		return nil, err
	}
	mp, err := empirical.Train(xs, yp, 1e-3)
	if err != nil {
		return nil, err
	}
	var out []dse.Point
	for i, cfg := range configs {
		t := mt.Predict(empirical.Features(cfg))
		p := mp.Predict(empirical.Features(cfg))
		if i%2 == 0 {
			// Training points are known exactly.
			t, p = act[i].Time, act[i].Power
		}
		out = append(out, dse.Point{Config: cfg.Name, Time: t, Power: p})
	}
	return out, nil
}

func fig7x10(s *Suite, w io.Writer) {
	header(w, "Pareto fronts: mechanistic vs empirical model")
	configs := SpaceSample(spaceStride)
	n := s.N / 3
	for _, name := range []string{"bzip2", "gromacs", "mcf", "libquantum"} {
		pred, act := s.spacePoints(name, configs, n)
		emp, err := s.empiricalPoints(name, configs, n, act)
		if err != nil {
			fmt.Fprintf(w, "%s: empirical model failed: %v\n", name, err)
			continue
		}
		mm := dse.Evaluate(pred, act)
		me := dse.Evaluate(emp, act)
		fmt.Fprintf(w, "%-12s mechanistic: sens=%.2f spec=%.2f hvr=%.3f | empirical: sens=%.2f spec=%.2f hvr=%.3f\n",
			name, mm.Sensitivity, mm.Specificity, mm.HVR, me.Sensitivity, me.Specificity, me.HVR)
	}
}

func fig7x11(s *Suite, w io.Writer) {
	header(w, "pruning metrics, all benchmarks: mechanistic vs empirical")
	configs := SpaceSample(spaceStride)
	n := s.N / 3
	var ms, es, mh, eh, msp, esp []float64
	for _, name := range s.Workloads {
		pred, act := s.spacePoints(name, configs, n)
		emp, err := s.empiricalPoints(name, configs, n, act)
		if err != nil {
			continue
		}
		mm := dse.Evaluate(pred, act)
		me := dse.Evaluate(emp, act)
		ms = append(ms, mm.Sensitivity)
		es = append(es, me.Sensitivity)
		msp = append(msp, mm.Specificity)
		esp = append(esp, me.Specificity)
		mh = append(mh, mm.HVR)
		eh = append(eh, me.HVR)
	}
	fmt.Fprintf(w, "sensitivity: mechanistic=%.3f empirical=%.3f\n", stats.Mean(ms), stats.Mean(es))
	fmt.Fprintf(w, "specificity: mechanistic=%.3f empirical=%.3f\n", stats.Mean(msp), stats.Mean(esp))
	fmt.Fprintf(w, "HVR:         mechanistic=%.3f empirical=%.3f\n", stats.Mean(mh), stats.Mean(eh))
}
