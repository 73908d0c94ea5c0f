// Command simulate runs the cycle-level reference simulator (the ground
// truth the analytical model is validated against) and prints measured CPI
// and power stacks — and, when a profile is available, the model-vs-sim
// residual table the fidelity observatory aggregates in service.
//
// Usage:
//
//	simulate -workload gcc -n 1000000
//	simulate -workload libquantum -config reference+pf
//	simulate -store ./profile-store -name mcf    # profile from a mippd store:
//	                                             # replays the profiled stream and
//	                                             # also prints the analytical
//	                                             # model's per-component residuals
package main

import (
	"flag"
	"fmt"
	"log"

	"mipp"
	"mipp/arch"
	"mipp/fidelity"
	"mipp/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simulate: ")
	var (
		name     = flag.String("workload", "", "benchmark name")
		n        = flag.Int("n", 1_000_000, "trace length in micro-ops (not with -store, which replays the profiled length)")
		cfgName  = flag.String("config", "reference", "reference | reference+pf | lowpower")
		storeDir = flag.String("store", "", "content-addressed profile store to read from (see mippd -store)")
		regName  = flag.String("name", "", "store registry name to load with -store (default: -workload)")
	)
	flag.Parse()

	cfg, ok := arch.ByName(*cfgName)
	if !ok {
		log.Fatalf("unknown config %q", *cfgName)
	}

	// With -store, the profile supplies the stream (Profile.Stream replays
	// the very stream it was collected from) and the analytical side of the
	// residual table.
	var profile *mipp.Profile
	workload := *name
	if *storeDir != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				log.Fatal("-n is not supported with -store: the stored profile's own stream is replayed")
			}
		})
		lookup := *regName
		if lookup == "" {
			lookup = *name
		}
		if lookup == "" {
			log.Fatal("missing -name (or -workload) with -store")
		}
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		p, ok, err := st.Get(lookup)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			log.Fatalf("profile %q not in store %s (stored: %v)", lookup, *storeDir, st.Names())
		}
		profile = p
		workload = p.Workload()
		fmt.Printf("profile %q from %s (workload %s, %d uops profiled)\n",
			lookup, *storeDir, workload, p.TotalUops())
	}
	if workload == "" {
		log.Fatal("missing -workload")
	}

	var stream *mipp.Stream
	var err error
	if profile != nil {
		stream, err = profile.Stream()
	} else {
		stream, err = mipp.GenerateWorkload(workload, *n, 0)
	}
	if err != nil {
		log.Fatal(err)
	}
	res, err := mipp.Simulate(cfg, stream, mipp.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}
	pw := mipp.EstimatePower(cfg, &res.Activity)
	stack := res.Stack.PerInstruction(res.Instructions)
	fmt.Println(res.String())
	fmt.Printf("CPI stack: %s\n", stack.String())
	fmt.Printf("power:     %s\n", pw.String())
	fmt.Printf("branches:  %d (%.2f%% mispredicted)\n", res.Branches,
		100*float64(res.BranchMispredicts)/float64(max64(res.Branches, 1)))
	fmt.Printf("loads:     L1=%d L2=%d L3=%d Mem=%d coalesced=%d\n",
		res.LoadsAtLevel[0], res.LoadsAtLevel[1], res.LoadsAtLevel[2], res.LoadsAtLevel[3], res.CoalescedLoads)

	if profile == nil {
		return
	}

	// The residual table: the analytical model's prediction against what
	// the simulator just measured, decomposed the same way the serving
	// tier's /v1/fidelity reports it.
	pd, err := mipp.NewPredictor(profile)
	if err != nil {
		log.Fatal(err)
	}
	model, err := pd.Predict(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sample := fidelity.Pair{
		Workload: workload,
		Config:   cfg.Name,
		Model:    mipp.ModelMeasurement(model),
		Sim:      mipp.SimMeasurement(cfg, res),
	}.Sample()

	fmt.Printf("\nmodel vs simulator (model − sim; positive = model over-predicts)\n")
	fmt.Printf("  CPI:   model %.4f  sim %.4f  error %+.2f%%\n",
		sample.Model.CPI, sample.Sim.CPI, sample.CPIErrorPct)
	mc, sc, rc := sample.Model.CPIStack.Components(), sample.Sim.CPIStack.Components(), sample.CPIResidual.Components()
	for i, comp := range fidelity.CPIComponents {
		fmt.Printf("    %-7s model %.4f  sim %.4f  residual %+.4f\n", comp, mc[i], sc[i], rc[i])
	}
	fmt.Printf("  power: model %.3fW  sim %.3fW  error %+.2f%%\n",
		sample.Model.Watts, sample.Sim.Watts, sample.WattsErrorPct)
	mp, sp, rp := sample.Model.Power.Components(), sample.Sim.Power.Components(), sample.PowerResidual.Components()
	for i, comp := range fidelity.PowerComponents {
		fmt.Printf("    %-7s model %.3fW  sim %.3fW  residual %+.3fW\n", comp, mp[i], sp[i], rp[i])
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
