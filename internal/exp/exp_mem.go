package exp

import (
	"fmt"
	"io"

	"mipp/api"
	"mipp/internal/cache"
	"mipp/internal/config"
	"mipp/internal/ooo"
	"mipp/internal/perf"
	"mipp/internal/profiler"
	"mipp/internal/stats"
	"mipp/internal/statstack"
	"mipp/internal/trace"
)

func init() {
	register("fig4.2", "StatStack vs simulated MPKI, 3-level hierarchy (Figure 4.2)", fig4x2)
	register("fig4.3", "Execution time with and without MLP modeling (Figure 4.3)", fig4x3)
	register("fig4.4", "Cold vs capacity LLC misses (Figure 4.4)", fig4x4)
	register("fig4.7", "Stride-category ratios (Figure 4.7)", fig4x7)
	register("fig4.9", "gcc CPI over time with/without LLC chaining (Figure 4.9)", fig4x9)
	register("fig6.15", "MLP model error, no prefetching (Figure 6.15)", fig6x15)
	register("fig6.16", "Performance error: stride vs cold-miss MLP (Figure 6.16)", fig6x16)
	register("fig6.17", "Error CDF: stride vs cold-miss MLP (Figure 6.17)", fig6x17)
	register("fig6.18", "MLP model error with stride prefetching (Figure 6.18)", fig6x18)
}

func fig4x2(s *Suite, w io.Writer) {
	header(w, "MPKI: StatStack prediction vs functional LRU simulation")
	cfg := config.Reference()
	for _, name := range s.Workloads {
		st := s.Stream(name, s.N)
		h := cache.NewHierarchy(cfg.L1D, cfg.L2, cfg.L3)
		for i := range st.Uops {
			u := &st.Uops[i]
			if u.Class.IsMem() {
				h.Access(u.Addr, u.Class == trace.Store)
			}
		}
		pred := statstack.Predict(s.Profile(name, s.N), cfg.CacheLevels(), cfg.L1I)
		instr := int64(st.Instructions())
		fmt.Fprintf(w, "%-12s L1 sim=%6.1f pred=%6.1f | L2 sim=%6.1f pred=%6.1f | L3 sim=%6.1f pred=%6.1f\n",
			name,
			h.Levels[0].Stats.MPKI(instr), pred.Levels[0].MPKI,
			h.Levels[1].Stats.MPKI(instr), pred.Levels[1].MPKI,
			h.Levels[2].Stats.MPKI(instr), pred.Levels[2].MPKI)
	}
}

func fig4x3(s *Suite, w io.Writer) {
	header(w, "normalized execution time: simulator / model / model without MLP")
	cfg := config.Reference()
	var noMLPErrs []float64
	for _, name := range s.Workloads {
		sim := s.Sim(name, cfg, s.N)
		with := s.Predict(name, cfg, s.N)
		without := s.PredictSpec(name, cfg, s.N, api.PredictorSpec{MLPMode: "none"})
		simC := float64(sim.Cycles)
		fmt.Fprintf(w, "%-12s sim=1.000 model=%.3f noMLP=%.3f\n",
			name, with.Cycles/simC, without.Cycles/simC)
		noMLPErrs = append(noMLPErrs, stats.AbsErr(without.Cycles, simC))
	}
	fmt.Fprintf(w, "no-MLP average error %.1f%% (max %.1f%%)\n",
		stats.Mean(noMLPErrs)*100, stats.Max(noMLPErrs)*100)
}

func fig4x4(s *Suite, w io.Writer) {
	header(w, "cold vs capacity/conflict LLC load misses: full trace vs warmed half")
	cfg := config.Reference()
	for _, name := range s.Workloads {
		st := s.Stream(name, s.N)
		full := missBreakdown(st, cfg, 0)
		warm := missBreakdown(st, cfg, st.Len()/2)
		fmt.Fprintf(w, "%-12s full: cold=%6d cap=%6d | warmed: cold=%6d cap=%6d\n",
			name, full[0], full[1], warm[0], warm[1])
	}
}

// missBreakdown replays the memory stream, counting (cold, capacity) LLC
// load misses after skipping `warm` uops of cache warm-up.
func missBreakdown(st *trace.Stream, cfg *config.Config, warm int) [2]int64 {
	h := cache.NewHierarchy(cfg.L1D, cfg.L2, cfg.L3)
	seen := make(map[uint64]struct{})
	var out [2]int64
	for i := range st.Uops {
		u := &st.Uops[i]
		if !u.Class.IsMem() {
			continue
		}
		line := u.Addr >> 6
		level := h.Access(u.Addr, u.Class == trace.Store)
		_, touched := seen[line]
		seen[line] = struct{}{}
		if i < warm || u.Class != trace.Load {
			continue
		}
		if level == cache.Mem {
			if touched {
				out[1]++
			} else {
				out[0]++
			}
		}
	}
	return out
}

func fig4x7(s *Suite, w io.Writer) {
	header(w, "stride category ratios per benchmark")
	for _, name := range s.Workloads {
		r := s.Profile(name, s.N).CategoryRatios()
		fmt.Fprintf(w, "%-12s", name)
		for c := profiler.StrideCategory(0); c < profiler.NumCategories; c++ {
			fmt.Fprintf(w, " %s=%.2f", c, r[c])
		}
		fmt.Fprintln(w)
	}
}

func fig4x9(s *Suite, w io.Writer) {
	header(w, "gcc CPI over time: simulator vs model vs model without LLC chaining")
	cfg := config.Reference()
	st := s.Stream("gcc", s.N)
	win := s.N / 30
	sim, err := simWithWindows(cfg, st, win)
	if err != nil {
		panic(err)
	}
	with := s.Predict("gcc", cfg, s.N)
	without := s.PredictSpec("gcc", cfg, s.N, api.PredictorSpec{NoLLCChain: true})
	simCPI := sim.WindowCPI(win)
	for i := range simCPI {
		mw, mo := "-", "-"
		// Micro-traces map onto windows proportionally.
		if k := i * len(with.MicroCPI) / len(simCPI); k < len(with.MicroCPI) {
			upi := with.Uops / with.Instructions
			mw = fmt.Sprintf("%.3f", with.MicroCPI[k]*upi)
			mo = fmt.Sprintf("%.3f", without.MicroCPI[k]*upi)
		}
		fmt.Fprintf(w, "window %2d sim=%.3f model=%s model-noLLCchain=%s\n", i, simCPI[i], mw, mo)
	}
	fmt.Fprintf(w, "totals: sim=%.3f model=%.3f noChain=%.3f CPI\n", sim.CPI(), with.CPI(), without.CPI())
}

func simWithWindows(cfg *config.Config, st *trace.Stream, win int) (*ooo.Result, error) {
	return ooo.Simulate(cfg, st, ooo.Options{WindowUops: win})
}

// mlpModelError reports the per-benchmark DRAM-wait error of an MLP model,
// named as api.PredictorSpec.MLPMode names it, against the simulator
// (Figures 6.15-6.18 use the "time waiting on DRAM" view; we compare the
// DRAM stall per miss).
func mlpModelError(s *Suite, w io.Writer, mode string, withPrefetch bool) []float64 {
	cfg := config.Reference()
	if withPrefetch {
		cfg = config.ReferenceWithPrefetcher()
	}
	var errs []float64
	for _, name := range s.Workloads {
		sim := s.Sim(name, cfg, s.N)
		res := s.PredictSpec(name, cfg, s.N, api.PredictorSpec{MLPMode: mode})
		simDram := sim.Stack.Cycles[perf.DRAM]
		modDram := res.Stack.Cycles[perf.DRAM]
		e := 0.0
		if simDram > float64(sim.Cycles)*0.01 {
			e = stats.AbsErr(modDram, simDram)
		} else {
			// Negligible DRAM time: compare against total cycles to
			// avoid dividing by ~0.
			e = (modDram - simDram) / float64(sim.Cycles)
			if e < 0 {
				e = -e
			}
		}
		errs = append(errs, e)
		fmt.Fprintf(w, "%-12s sim-dram=%10.0f model-dram=%10.0f err=%5.1f%%\n", name, simDram, modDram, e*100)
	}
	fmt.Fprintf(w, "average %.1f%%\n", stats.Mean(errs)*100)
	return errs
}

func fig6x15(s *Suite, w io.Writer) {
	header(w, "DRAM-wait error, cold-miss MLP model (no prefetch)")
	mlpModelError(s, w, "cold-miss", false)
	header(w, "DRAM-wait error, stride MLP model (no prefetch)")
	mlpModelError(s, w, "stride", false)
}

func fig6x16(s *Suite, w io.Writer) {
	header(w, "total performance error: stride vs cold-miss MLP")
	cfg := config.Reference()
	var coldErrs, strideErrs []float64
	for _, name := range s.Workloads {
		sim := s.Sim(name, cfg, s.N)
		cold := s.PredictSpec(name, cfg, s.N, api.PredictorSpec{MLPMode: "cold-miss"})
		stride := s.Predict(name, cfg, s.N)
		ce := stats.AbsErr(cold.Cycles, float64(sim.Cycles))
		se := stats.AbsErr(stride.Cycles, float64(sim.Cycles))
		coldErrs = append(coldErrs, ce)
		strideErrs = append(strideErrs, se)
		fmt.Fprintf(w, "%-12s cold=%5.1f%% stride=%5.1f%%\n", name, ce*100, se*100)
	}
	fmt.Fprintf(w, "averages: cold=%.1f%% stride=%.1f%%\n", stats.Mean(coldErrs)*100, stats.Mean(strideErrs)*100)
}

func fig6x17(s *Suite, w io.Writer) {
	header(w, "cumulative error distribution: stride vs cold-miss MLP")
	cfg := config.Reference()
	var coldErrs, strideErrs []float64
	for _, name := range s.Workloads {
		sim := s.Sim(name, cfg, s.N)
		cold := s.PredictSpec(name, cfg, s.N, api.PredictorSpec{MLPMode: "cold-miss"})
		coldErrs = append(coldErrs, stats.AbsErr(cold.Cycles, float64(sim.Cycles)))
		strideErrs = append(strideErrs, stats.AbsErr(s.Predict(name, cfg, s.N).Cycles, float64(sim.Cycles)))
	}
	for _, lim := range []float64{0.05, 0.10, 0.20, 0.30, 0.50} {
		fmt.Fprintf(w, "<=%3.0f%%: cold %.0f%%  stride %.0f%% of benchmarks\n",
			lim*100, stats.FractionBelow(coldErrs, lim)*100, stats.FractionBelow(strideErrs, lim)*100)
	}
}

func fig6x18(s *Suite, w io.Writer) {
	header(w, "DRAM-wait error with stride prefetching enabled")
	header(w, "cold-miss MLP model")
	mlpModelError(s, w, "cold-miss", true)
	header(w, "stride MLP model (models the prefetcher)")
	mlpModelError(s, w, "stride", true)
}
