// Command fidelityjson measures the analytical model against the
// cycle-level reference simulator over the full 243-point design space and
// writes the result as a deterministic JSON artifact (FIDELITY_pr10.json),
// so CI can both archive the accuracy trajectory next to the BENCH_*.json
// perf records and fail the build when model fidelity regresses.
//
// Usage:
//
//	go run ./internal/tools/fidelityjson -out FIDELITY_pr10.json \
//	    -workloads mcf,gcc -uops 40000 -max-mape 12
//
// For each workload the tool profiles the generated trace once, then runs
// both the predictor and the simulator on every design-space configuration,
// the simulator on the profile's own stream (Profile.Stream), feeding the
// (model, simulator) pairs through the same fidelity.Recorder the serving
// tier aggregates — the artifact is the fidelity.Report itself
// plus the run parameters. Everything is a pure function of (workloads,
// uops, seed): no timestamps, no host identity, so the checked-in file
// reproduces byte-identically on any machine.
//
// -max-mape fails the run (exit 1) when the overall CPI MAPE exceeds the
// threshold; -max-watts-mape does the same for power. The thresholds are
// the accuracy floor of the paper reproduction: the interval model tracks
// the OoO reference within low-double-digit percent across the space.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"mipp"
	"mipp/arch"
	"mipp/fidelity"
)

type artifact struct {
	SchemaVersion int    `json:"schema_version"`
	PR            int    `json:"pr"`
	Note          string `json:"note,omitempty"`
	// Params pin the inputs the report is a pure function of.
	Params struct {
		Workloads []string `json:"workloads"`
		Uops      int      `json:"uops"`
		Seed      int64    `json:"seed"`
		Configs   int      `json:"configs"`
	} `json:"params"`
	Report   *fidelity.Report `json:"report"`
	Failures []string         `json:"gate_failures,omitempty"`
}

func main() {
	var (
		out       = flag.String("out", "", "output file (empty = stdout only)")
		workloads = flag.String("workloads", "mcf,gcc", "comma-separated workloads to measure")
		uops      = flag.Int("uops", 40_000, "trace length in micro-ops (profiler and simulator see the same stream)")
		seed      = flag.Int64("seed", 0, "workload generation seed (0 = each workload's default)")
		worstN    = flag.Int("worst", 10, "worst-offender configs to record in the report")
		maxMAPE   = flag.Float64("max-mape", 0, "fail when overall CPI MAPE (percent) exceeds this (0 = no gate)")
		maxWatts  = flag.Float64("max-watts-mape", 0, "fail when overall power MAPE (percent) exceeds this (0 = no gate)")
		pr        = flag.Int("pr", 10, "PR number recorded in the artifact")
		note      = flag.String("note", "model-vs-simulator residuals over the 243-point design space", "free-text note recorded in the artifact")
	)
	flag.Parse()

	names := strings.Split(*workloads, ",")
	configs := arch.DesignSpace()
	rec := fidelity.NewRecorder()

	type task struct {
		workload string
		pd       *mipp.Predictor
		stream   *mipp.Stream
		cfg      *arch.Config
	}
	tasks := make([]task, 0, len(names)*len(configs))
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := mipp.NewProfiler(mipp.WithSeed(*seed)).Profile(name, *uops)
		if err != nil {
			fatal(err)
		}
		pd, err := mipp.NewPredictor(p)
		if err != nil {
			fatal(err)
		}
		stream, err := p.Stream()
		if err != nil {
			fatal(err)
		}
		for _, cfg := range configs {
			tasks = append(tasks, task{name, pd, stream, cfg})
		}
	}

	// The recorder dedupes by digest and folds canonically, so any worker
	// count and completion order yields the same report bytes.
	var wg sync.WaitGroup
	ch := make(chan task)
	var mu sync.Mutex
	var errs []string
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if err := run(rec, t.workload, t.pd, t.stream, t.cfg); err != nil {
					mu.Lock()
					errs = append(errs, err.Error())
					mu.Unlock()
				}
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	if len(errs) > 0 {
		sort.Strings(errs)
		fatal(fmt.Errorf("%d evaluation(s) failed, first: %s", len(errs), errs[0]))
	}

	var a artifact
	a.SchemaVersion = 1
	a.PR = *pr
	a.Note = *note
	a.Params.Workloads = names
	a.Params.Uops = *uops
	a.Params.Seed = *seed
	a.Params.Configs = len(configs)
	rep := rec.Report(*worstN)
	a.Report = &rep

	if *maxMAPE > 0 && a.Report.CPI.MAPEPct > *maxMAPE {
		a.Failures = append(a.Failures, fmt.Sprintf(
			"cpi mape %.2f%% exceeds gate %.2f%%", a.Report.CPI.MAPEPct, *maxMAPE))
	}
	if *maxWatts > 0 && a.Report.Watts.MAPEPct > *maxWatts {
		a.Failures = append(a.Failures, fmt.Sprintf(
			"watts mape %.2f%% exceeds gate %.2f%%", a.Report.Watts.MAPEPct, *maxWatts))
	}

	data, err := json.MarshalIndent(&a, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	}
	os.Stdout.Write(data)
	if len(a.Failures) > 0 {
		fatal(fmt.Errorf("fidelity gate failed: %s", strings.Join(a.Failures, "; ")))
	}
}

// run evaluates one (workload, config) pair on both sides of the seam and
// records the residual.
func run(rec *fidelity.Recorder, workload string, pd *mipp.Predictor, stream *mipp.Stream, cfg *arch.Config) error {
	model, err := pd.Predict(cfg)
	if err != nil {
		return fmt.Errorf("%s/%s: predict: %w", workload, cfg.Name, err)
	}
	sim, err := mipp.Simulate(cfg, stream, mipp.SimOptions{})
	if err != nil {
		return fmt.Errorf("%s/%s: simulate: %w", workload, cfg.Name, err)
	}
	rec.Record(fidelity.Pair{
		Workload: workload,
		Config:   cfg.Name,
		Digest:   fidelity.Digest(workload, "", cfg),
		Model:    mipp.ModelMeasurement(model),
		Sim:      mipp.SimMeasurement(cfg, sim),
	})
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fidelityjson:", err)
	os.Exit(1)
}
