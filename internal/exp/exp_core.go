package exp

import (
	"fmt"
	"io"

	"mipp/api"
	"mipp/internal/branch"
	"mipp/internal/config"
	"mipp/internal/ooo"
	"mipp/internal/profiler"
	"mipp/internal/stats"
	"mipp/internal/trace"
	"mipp/internal/workload"
)

func init() {
	register("fig3.1", "Micro-operations per instruction (Figure 3.1)", fig3x1)
	register("fig3.4", "AP vs ABP vs CP dependence chains, ROB=128 (Figure 3.4)", fig3x4)
	register("fig3.6", "Effective dispatch rate limiters (Figure 3.6)", fig3x6)
	register("fig3.7", "Base-component error vs model refinements (Figure 3.7)", fig3x7)
	register("fig3.9", "Branch entropy vs misprediction rate, linear fit (Figure 3.9)", fig3x9)
	register("fig3.10", "Entropy-model MPKI error per predictor (Figure 3.10)", fig3x10)
	register("fig5.2", "Sampled vs full instruction mix (Figure 5.2)", fig5x2)
	register("fig5.4", "Dependence-chain interpolation error (Figures 5.3-5.4)", fig5x4)
	register("fig5.5", "Dependence-chain sampling error (Figure 5.5)", fig5x5)
	register("fig5.6", "Branch component share of execution time (Figure 5.6)", fig5x6)
}

func fig3x1(s *Suite, w io.Writer) {
	header(w, "uops / instruction per benchmark")
	for _, name := range s.Workloads {
		st := s.Stream(name, s.N)
		fmt.Fprintf(w, "%-12s %.3f\n", name, st.UopsPerInstruction())
	}
}

func fig3x4(s *Suite, w io.Writer) {
	header(w, "dependence chains at ROB 128: AP / ABP / CP")
	for _, name := range s.Workloads {
		p := s.Profile(name, s.N)
		ap, abp, cp := p.Chains.At(128)
		fmt.Fprintf(w, "%-12s AP=%6.2f ABP=%6.2f CP=%6.2f\n", name, ap, abp, cp)
	}
}

func fig3x6(s *Suite, w io.Writer) {
	header(w, "dispatch-rate limiter (fraction of micro-traces): width / dependences / port / unit")
	cfg := config.Reference()
	for _, name := range s.Workloads {
		res := s.Predict(name, cfg, s.N)
		total := 0.0
		for _, c := range res.Limiter {
			total += c
		}
		if total == 0 {
			total = 1
		}
		fmt.Fprintf(w, "%-12s width=%.2f dep=%.2f port=%.2f unit=%.2f (Deff=%.2f)\n",
			name, res.Limiter[0]/total, res.Limiter[1]/total, res.Limiter[2]/total, res.Limiter[3]/total, res.Deff)
	}
}

// fig3x7 reproduces the progressive refinement of the base component: the
// model under four dispatch models versus a miss-event-free simulation.
func fig3x7(s *Suite, w io.Writer) {
	header(w, "base-component |error| vs perfect-OoO simulation")
	cfg := config.Reference()
	models := []struct{ name, dm string }{
		{"Instructions", "instructions"},
		{"Micro-operations", "uops"},
		{"Critical", "critical"},
		{"Functional", "full"},
	}
	perfOpts := ooo.Options{PerfectBP: true, PerfectICache: true, PerfectDCache: true}
	errs := make([][]float64, len(models))
	for _, name := range s.Workloads {
		st := s.Stream(name, s.N)
		sim, err := ooo.Simulate(cfg, st, perfOpts)
		if err != nil {
			panic(err)
		}
		for i, dm := range models {
			// Base component only: compare against the perfect core.
			res := s.PredictSpec(name, cfg, s.N, api.PredictorSpec{DispatchModel: dm.dm})
			base := res.Stack.Cycles[0] // perf.Base
			errs[i] = append(errs[i], stats.AbsErr(base, float64(sim.Cycles)))
		}
	}
	for i, dm := range models {
		b := stats.Box(errs[i])
		fmt.Fprintf(w, "%-16s mean=%5.1f%% median=%5.1f%% q1=%5.1f%% q3=%5.1f%% p99=%5.1f%%\n",
			dm.name, b.Mean*100, b.Median*100, b.Q1*100, b.Q3*100, b.P99*100)
	}
}

// entropyTrainingStreams builds the 400+-experiment style training set: the
// suite's workloads plus synthetic branchy kernels sweeping the noise level.
func entropyTrainingStreams(s *Suite) []*trace.Stream {
	var streams []*trace.Stream
	for _, name := range s.Workloads {
		streams = append(streams, s.Stream(name, s.N/3))
	}
	for i, eps := range []float64{0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.28, 0.35, 0.42, 0.5} {
		b := workload.NewBuilder(fmt.Sprintf("entropy-%.2f", eps), int64(1000+i), 60_000)
		k := workload.Branchy{BranchFrac: 0.18, Eps: []float64{eps, eps / 2, eps * 1.2}, Footprint: 64 << 10, LoadFrac: 0.2}
		k.Emit(b, 50_000)
		streams = append(streams, b.Stream())
	}
	return streams
}

func fig3x9(s *Suite, w io.Writer) {
	header(w, "linear fit: branch entropy -> misprediction rate (GAg 4KB)")
	streams := entropyTrainingStreams(s)
	model, pts := branch.Train("GAg", func() branch.Predictor { return branch.NewGAg(14) }, streams, 12)
	for _, pt := range pts {
		fmt.Fprintf(w, "%-14s entropy=%.4f missrate=%.4f fit=%.4f\n",
			pt.Workload, pt.Entropy, pt.MissRate, model.Fit.Eval(pt.Entropy))
	}
	fmt.Fprintf(w, "fit: missrate = %.4f + %.4f*entropy (R2=%.3f)\n", model.Fit.A, model.Fit.B, model.Fit.R2)
}

func fig3x10(s *Suite, w io.Writer) {
	header(w, "entropy-model MPKI error per predictor (signed, model - simulated)")
	streams := entropyTrainingStreams(s)
	for _, pname := range branch.StandardNames() {
		model, _ := branch.Train(pname, func() branch.Predictor {
			p, err := branch.NewByName(pname)
			if err != nil {
				panic(err)
			}
			return p
		}, streams, 12)
		var deltas []float64
		for _, name := range s.Workloads {
			st := s.Stream(name, s.N/3)
			pred, err := branch.NewByName(pname)
			if err != nil {
				panic(err)
			}
			simMPKI := branch.MPKI(pred, st)
			e := branch.Entropy(st, 12)
			instr := float64(st.Instructions())
			var branches float64
			for i := range st.Uops {
				if st.Uops[i].Class == trace.Branch {
					branches++
				}
			}
			modMPKI := model.Predict(e) * branches / instr * 1000
			deltas = append(deltas, modMPKI-simMPKI)
		}
		b := stats.Box(deltas)
		fmt.Fprintf(w, "%-12s mean=%+6.2f median=%+6.2f q1=%+6.2f q3=%+6.2f min=%+6.2f max=%+6.2f MPKI\n",
			pname, b.Mean, b.Median, b.Q1, b.Q3, b.Lo, b.Hi)
	}
}

func fig5x2(s *Suite, w io.Writer) {
	header(w, "instruction-mix sampling error (1/10 micro-trace rate, Eq 5.1)")
	var worst, sum float64
	var count int
	for _, name := range s.Workloads {
		st := s.Stream(name, s.N)
		p := s.Profile(name, s.N)
		full := st.Mix()
		sampled := p.Mix()
		maxErr := 0.0
		for c := range full {
			d := sampled[c] - full[c]
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
			sum += d
			count++
		}
		if maxErr > worst {
			worst = maxErr
		}
		fmt.Fprintf(w, "%-12s max per-class error %.3f%%\n", name, maxErr*100)
	}
	fmt.Fprintf(w, "average error %.4f%%, worst %.3f%%\n", sum/float64(count)*100, worst*100)
}

func fig5x4(s *Suite, w io.Writer) {
	header(w, "chain-length log-fit interpolation error (profiled every 32, predicted at 16-offsets)")
	for _, name := range s.Workloads {
		p := s.Profile(name, s.N)
		full := p.Chains
		// Rebuild a coarse set from every second point and interpolate
		// back to the skipped ROB sizes.
		coarse := &profiler.ChainSet{}
		for i := 0; i < len(full.ROBs); i += 2 {
			coarse.ROBs = append(coarse.ROBs, full.ROBs[i])
			coarse.AP = append(coarse.AP, full.AP[i])
			coarse.ABP = append(coarse.ABP, full.ABP[i])
			coarse.CP = append(coarse.CP, full.CP[i])
		}
		var apErr, abpErr, cpErr []float64
		for i := 1; i < len(full.ROBs); i += 2 {
			ap, abp, cp := coarse.At(full.ROBs[i])
			apErr = append(apErr, stats.AbsErr(ap, full.AP[i]))
			abpErr = append(abpErr, stats.AbsErr(abp, full.ABP[i]))
			cpErr = append(cpErr, stats.AbsErr(cp, full.CP[i]))
		}
		fmt.Fprintf(w, "%-12s AP=%.2f%% ABP=%.2f%% CP=%.2f%%\n",
			name, stats.Mean(apErr)*100, stats.Mean(abpErr)*100, stats.Mean(cpErr)*100)
	}
}

func fig5x5(s *Suite, w io.Writer) {
	header(w, "chain-length sampling error (sampled micro-traces vs dense profiling)")
	n := s.N / 3
	for _, name := range s.Workloads {
		st := s.Stream(name, n)
		sampled := profiler.Run(st, profiler.Options{})
		dense := profiler.Run(st, profiler.Options{MicroUops: 2000, WindowUops: 2000})
		apS, abpS, cpS := sampled.Chains.At(128)
		apD, abpD, cpD := dense.Chains.At(128)
		fmt.Fprintf(w, "%-12s AP=%.2f%% ABP=%.2f%% CP=%.2f%%\n", name,
			stats.AbsErr(apS, apD)*100, stats.AbsErr(abpS, abpD)*100, stats.AbsErr(cpS, cpD)*100)
	}
}

func fig5x6(s *Suite, w io.Writer) {
	header(w, "branch component share of simulated execution time")
	cfg := config.Reference()
	for _, name := range s.Workloads {
		sim := s.Sim(name, cfg, s.N)
		fmt.Fprintf(w, "%-12s branch share %.2f%% (CPI %.3f)\n",
			name, sim.Stack.Fraction(1)*100, sim.CPI())
	}
}
