// Command explore runs the headline application of the framework: full
// design-space exploration (Chapter 7). It profiles each workload once,
// registers it with an evaluation Engine — the same registry + predictor
// cache mippd serves from — sweeps the analytical model over the 243-point
// design space on all cores, prints the predicted Pareto frontier and —
// optionally — validates the pruning against the cycle-level simulator.
//
// Usage:
//
//	explore -workload bzip2                  # model-only, full 243 points
//	explore -workload bzip2 -csv out.csv     # + per-config CSV export
//	explore -workload bzip2 -validate -k 13  # + simulator on a 19-point sample
//	explore -workload bzip2 -strategy genetic -seed 7 -cap 25 -compare
//	                                         # guided search + quality vs exhaustive
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mipp"
	"mipp/api"
	"mipp/arch"
	"mipp/search"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("explore: ")
	var (
		name     = flag.String("workload", "bzip2", "benchmark name")
		n        = flag.Int("n", 200_000, "trace length in micro-ops")
		k        = flag.Int("k", 1, "design-space stride (1 = all 243 configs)")
		workers  = flag.Int("workers", 0, "sweep worker count (0 = GOMAXPROCS)")
		batch    = flag.Bool("batch", true, "sweep through the batched evaluation kernel (false = one Predict call per config)")
		csvPath  = flag.String("csv", "", "write per-config results as CSV to this file (- for stdout)")
		validate = flag.Bool("validate", false, "simulate the sampled space and score the pruning")
		strategy = flag.String("strategy", "", "search instead of sweeping: random, hill or genetic (empty = exhaustive sweep)")
		seed     = flag.Int64("seed", 1, "search strategy seed")
		budget   = flag.Int("budget", 0, "search evaluation budget (0 = strategy default)")
		capW     = flag.Float64("cap", 0, "power cap in watts for the search (0 = unconstrained)")
		obj      = flag.String("objective", "time", "search objective: time, energy, edp or ed2p")
		compare  = flag.Bool("compare", false, "score the search front against the exhaustive sweep (HVR, sensitivity, specificity)")
	)
	flag.Parse()

	t0 := time.Now()
	profile, err := mipp.NewProfiler().Profile(*name, *n)
	if err != nil {
		log.Fatal(err)
	}
	profTime := time.Since(t0)

	// The engine holds the profile and compiles the predictor on first
	// use; a long-lived process (or mippd) reuses both across queries.
	engine := mipp.NewEngine()
	if err := engine.Register(*name, profile); err != nil {
		log.Fatal(err)
	}
	// Phase 1 (compile): curves, per-micro MLP models, memo tables — paid
	// once per (workload, option set).
	t0 = time.Now()
	pred, err := engine.Predictor(*name, api.PredictorSpec{})
	if err != nil {
		log.Fatal(err)
	}
	compileTime := time.Since(t0)

	if *strategy != "" {
		// The sweep-path flags do not apply to a guided search; reject
		// them explicitly rather than silently ignoring requested output.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "csv", "validate", "k", "batch":
				log.Fatalf("-%s is not supported with -strategy (search reports its own front; use -compare for quality metrics)", f.Name)
			}
		})
		runSearch(pred, *strategy, *seed, *budget, *capW, *obj, *workers, *compare)
		return
	}

	configs := arch.DesignSpaceSample(*k)
	var sweepOpts []mipp.SweepOption
	if *workers > 0 {
		sweepOpts = append(sweepOpts, mipp.WithWorkers(*workers))
	}
	// Phase 2 (evaluate): the batched kernel, or — for comparison — one
	// Predict call per configuration with no batch scratch reuse.
	t0 = time.Now()
	var results mipp.Results
	if *batch {
		results, err = mipp.Sweep(context.Background(), pred, configs, sweepOpts...)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		results = make(mipp.Results, len(configs))
		for i, cfg := range configs {
			if results[i], err = pred.Predict(cfg); err != nil {
				log.Fatal(err)
			}
		}
	}
	modelTime := time.Since(t0)

	mode := "batched"
	if !*batch {
		mode = "per-config"
	}
	fmt.Printf("%s: generated and profiled %d uops in %v; compiled predictor in %v; swept %d configs in %v (%s, %.1f configs/s)\n",
		*name, profile.TotalUops(), profTime.Round(time.Millisecond),
		compileTime.Round(10*time.Microsecond), len(configs),
		modelTime.Round(time.Millisecond), mode, float64(len(configs))/modelTime.Seconds())
	fmt.Println("predicted Pareto frontier (time vs power):")
	for _, pt := range results.ParetoFront() {
		fmt.Printf("  %-36s time=%.6fs power=%5.1fW\n", pt.Config, pt.Time, pt.Power)
	}

	if *csvPath != "" {
		out := os.Stdout
		if *csvPath != "-" {
			f, err := os.Create(*csvPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := results.WriteCSV(out); err != nil {
			log.Fatal(err)
		}
		if *csvPath != "-" {
			fmt.Printf("wrote %d rows to %s\n", len(results), *csvPath)
		}
	}

	if !*validate {
		return
	}
	// The simulator replays the stream the profile was collected from.
	stream, err := profile.Stream()
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	var actual []mipp.Point
	for _, cfg := range configs {
		sim, err := mipp.Simulate(cfg, stream, mipp.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		pw := mipp.EstimatePower(cfg, &sim.Activity)
		actual = append(actual, mipp.Point{
			Config: cfg.Name,
			Time:   sim.TimeSeconds(cfg.FrequencyGHz),
			Power:  pw.Total(),
		})
	}
	simTime := time.Since(t0)
	met := mipp.CompareFronts(results.Points(), actual)
	fmt.Printf("validation: simulated %d configs in %v (model speedup %.0fx)\n",
		len(configs), simTime.Round(time.Millisecond),
		simTime.Seconds()/modelTime.Seconds())
	fmt.Printf("pruning quality: sensitivity=%.2f specificity=%.2f accuracy=%.2f HVR=%.3f\n",
		met.Sensitivity, met.Specificity, met.Accuracy, met.HVR)
	fmt.Println("actual Pareto frontier:")
	for _, pt := range mipp.ParetoFront(actual) {
		fmt.Printf("  %-36s time=%.6fs power=%5.1fW\n", pt.Config, pt.Time, pt.Power)
	}
}

// runSearch drives a guided strategy over the Table 6.3 space in parametric
// form and — with -compare — scores its front against the exhaustive sweep
// with the Chapter 7 pruning metrics (sensitivity, specificity, HVR;
// Figure 7.8).
func runSearch(pred *mipp.Predictor, kind string, seed int64, budget int, capW float64, objective string, workers int, compare bool) {
	st, err := mipp.StrategyFor(api.StrategySpec{Kind: kind, Seed: seed})
	if err != nil {
		log.Fatalf("-strategy %s: %v", kind, err)
	}
	if budget <= 0 && kind == "random" {
		budget = 64
	}
	space := arch.TableSpace()
	opts := search.Options{
		Objective:   search.Objective(objective),
		Constraints: search.Constraints{MaxWatts: capW},
		Seed:        seed,
		Budget:      budget,
	}
	t0 := time.Now()
	rep, err := search.Run(context.Background(), mipp.NewSearchEvaluator(pred, workers), space, st, opts)
	if err != nil {
		log.Fatal(err)
	}
	searchTime := time.Since(t0)
	fmt.Printf("%s search (seed %d, objective %s): %d/%d points in %d generations, %v (%.0f evals/s)\n",
		rep.Strategy, rep.Seed, rep.Objective, rep.Evaluations, rep.SpaceSize,
		rep.Generations, searchTime.Round(time.Millisecond),
		float64(rep.Evaluations)/searchTime.Seconds())
	if rep.Best == nil {
		fmt.Println("no feasible point found")
	} else {
		b := rep.Best
		fmt.Printf("best: %-36s %s=%.6g time=%.6fs power=%5.1fW area=%.2f\n",
			b.Config, rep.Objective, b.Fitness, b.TimeSeconds, b.Watts, b.Area)
	}
	fmt.Println("search Pareto frontier (time vs power):")
	for _, e := range rep.Front {
		fmt.Printf("  %-36s time=%.6fs power=%5.1fW\n", e.Config, e.TimeSeconds, e.Watts)
	}

	if !compare {
		return
	}
	// Exhaustive reference over the same space: the search's front becomes
	// a classifier over the full space, scored with the Chapter 7 pruning
	// metrics exactly as the thesis scores model-based pruning against
	// simulation. The classification needs every point, so this is a full
	// sweep, not another search.
	var sweepOpts []mipp.SweepOption
	if workers > 0 {
		sweepOpts = append(sweepOpts, mipp.WithWorkers(workers))
	}
	t0 = time.Now()
	results, err := mipp.Sweep(context.Background(), pred, arch.DesignSpace(), sweepOpts...)
	if err != nil {
		log.Fatal(err)
	}
	exhTime := time.Since(t0)
	predicted := make([]mipp.Point, 0, len(rep.Front))
	for _, e := range rep.Front {
		predicted = append(predicted, mipp.Point{Config: e.Config, Time: e.TimeSeconds, Power: e.Watts})
	}
	actual := results.Points()
	met := mipp.CompareFronts(predicted, actual)
	fmt.Printf("search-vs-exhaustive: %d evals vs %d (exhaustive sweep in %v)\n",
		rep.Evaluations, len(actual), exhTime.Round(time.Millisecond))
	fmt.Printf("pruning quality: sensitivity=%.2f specificity=%.2f accuracy=%.2f HVR=%.3f\n",
		met.Sensitivity, met.Specificity, met.Accuracy, met.HVR)
}
