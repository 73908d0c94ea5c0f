package mipp_test

// Fidelity sampler tests: seeded determinism of the background-sampled
// report at any worker count, the disabled-by-default surface, and the
// search-side top-K escalation.

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"mipp"
	"mipp/api"
	"mipp/arch"
	"mipp/fidelity"
)

// fakeGroundTruth is a fast deterministic simulator stand-in: the
// measurement is a pure function of (workload, config), so reports depend
// only on which pairs were sampled — exactly what the determinism test
// needs to vary worker counts without paying real simulations.
type fakeGroundTruth struct{}

func (fakeGroundTruth) GroundTruth(ctx context.Context, workload string, cfg *arch.Config) (fidelity.Measurement, error) {
	if err := ctx.Err(); err != nil {
		return fidelity.Measurement{}, err
	}
	f := float64(cfg.ROB%7) / 100
	return fidelity.Measurement{
		CPI:      1 + f,
		CPIStack: fidelity.CPIStack{Base: 0.5, Branch: 0.1, ICache: 0.05, LLCHit: 0.1, DRAM: 0.25 + f},
		Watts:    10 + f,
		Power:    fidelity.PowerStack{Static: 3, Core: 4 + f, FU: 1, Cache: 1, DRAM: 0.5, BPred: 0.5},
	}, nil
}

func fidelityEngine(t *testing.T, workers int) *mipp.Engine {
	t.Helper()
	e := mipp.NewEngine(
		mipp.WithEngineWorkers(workers),
		mipp.WithFidelitySampling(mipp.FidelityOptions{
			Seed:        7,
			SampleEvery: 4,
			Budget:      128,
			Queue:       256,
			WorstN:      3,
			GroundTruth: fakeGroundTruth{},
		}),
	)
	if err := e.Register("mcf", engineProfile(t, "mcf")); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFidelitySamplerDeterministic: same seed + same served-config history
// ⇒ byte-identical fidelity report, whatever the worker count.
func TestFidelitySamplerDeterministic(t *testing.T) {
	ctx := context.Background()
	configs := arch.DesignSpaceSample(40)
	specs := make([]api.ConfigSpec, len(configs))
	for i, c := range configs {
		specs[i] = api.ConfigSpec{Config: c}
	}

	var reports [][]byte
	for _, workers := range []int{1, 4} {
		e := fidelityEngine(t, workers)
		if _, err := e.Sweep(ctx, &api.SweepRequest{
			SchemaVersion: api.SchemaVersion,
			Workload:      "mcf",
			Configs:       specs,
			Workers:       workers,
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := e.FidelityReport(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil || rep.Samples == 0 {
			t.Fatalf("workers=%d: empty fidelity report %+v", workers, rep)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
		e.Close()
	}
	if string(reports[0]) != string(reports[1]) {
		t.Fatalf("fidelity report depends on worker count:\n%s\nvs\n%s", reports[0], reports[1])
	}

	// Re-serving the same history must not change the report: set
	// semantics, not counting semantics.
	e := fidelityEngine(t, 2)
	defer e.Close()
	for i := 0; i < 2; i++ {
		if _, err := e.Sweep(ctx, &api.SweepRequest{
			SchemaVersion: api.SchemaVersion,
			Workload:      "mcf",
			Configs:       specs,
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.FidelityReport(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(rep)
	if string(data) != string(reports[0]) {
		t.Fatalf("re-served history changed the report:\n%s\nvs\n%s", reports[0], data)
	}
}

func TestFidelityDisabled(t *testing.T) {
	e := newTestEngine(t, "mcf")
	if e.FidelityEnabled() {
		t.Fatal("fidelity enabled without WithFidelitySampling")
	}
	if st := e.FidelityStats(); st != nil {
		t.Fatalf("FidelityStats = %+v, want nil", st)
	}
	rep, err := e.FidelityReport(context.Background(), true)
	if err != nil || rep != nil {
		t.Fatalf("FidelityReport = %v, %v; want nil, nil", rep, err)
	}
	e.Close() // must be a safe no-op
}

// TestFidelityPredictOffers: the single-prediction path feeds the sampler
// too, and the recorded sample carries the model-vs-truth residual.
func TestFidelityPredictOffers(t *testing.T) {
	e := mipp.NewEngine(mipp.WithFidelitySampling(mipp.FidelityOptions{
		SampleEvery: 1, // sample everything: this test serves one config
		Budget:      8,
		GroundTruth: fakeGroundTruth{},
	}))
	defer e.Close()
	if err := e.Register("mcf", engineProfile(t, "mcf")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Predict(ctx, &api.PredictRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "mcf",
		Config:        api.ConfigSpec{Name: "reference"},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.FidelityReport(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 1 {
		t.Fatalf("Samples = %d, want 1", rep.Samples)
	}
	if st := e.FidelityStats(); st == nil || st.Samples != 1 {
		t.Fatalf("FidelityStats = %+v, want 1 sample", st)
	}
	s := rep.Worst[0]
	if s.Workload != "mcf" || s.Config == "" || s.Digest == "" {
		t.Fatalf("sample identity = %+v", s)
	}
	if s.Model.CPI <= 0 || s.Sim.CPI <= 0 {
		t.Fatalf("sample measurements empty: %+v", s)
	}
	if got, want := s.CPIErrorPct, 100*(s.Model.CPI-s.Sim.CPI)/s.Sim.CPI; got != want {
		t.Fatalf("CPIErrorPct = %v, want %v", got, want)
	}
}

// TestFidelitySweepStreamOffers: the streamed sweep feeds the sampler like
// every other serving path.
func TestFidelitySweepStreamOffers(t *testing.T) {
	e := mipp.NewEngine(mipp.WithFidelitySampling(mipp.FidelityOptions{
		SampleEvery: 1,
		Budget:      8,
		GroundTruth: fakeGroundTruth{},
	}))
	defer e.Close()
	if err := e.Register("mcf", engineProfile(t, "mcf")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	err := e.SweepStream(ctx, &api.SweepRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "mcf",
		Configs:       []api.ConfigSpec{{Name: "reference"}, {Name: "lowpower"}},
	}, mipp.SweepSink{Item: func(api.SweepItem) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.FidelityReport(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 2 {
		t.Fatalf("Samples = %d after streaming 2 configs, want 2", rep.Samples)
	}
}

// TestFidelitySearchEscalation: a finished search escalates its top-K
// recommended configs past the sampling predicate (§7.4: validate what you
// are about to recommend).
func TestFidelitySearchEscalation(t *testing.T) {
	e := mipp.NewEngine(mipp.WithFidelitySampling(mipp.FidelityOptions{
		SampleEvery: 1 << 30, // sampling effectively off: only escalation records
		Budget:      16,
		TopK:        3,
		GroundTruth: fakeGroundTruth{},
	}))
	defer e.Close()
	if err := e.Register("mcf", engineProfile(t, "mcf")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cap := 18.0
	sub, err := e.SubmitSearch(ctx, &api.SearchRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "mcf",
		Space:         api.SpaceSpec{Kind: "design"},
		Strategy:      api.StrategySpec{Kind: "random", Seed: 3, Samples: 32},
		Objective:     "ed2p",
		CapWatts:      &cap,
		Budget:        64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mipp.WaitSearch(ctx, e, sub.Job.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rep, err := e.FidelityReport(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples == 0 || rep.Samples > 3 {
		t.Fatalf("escalated samples = %d, want 1..3", rep.Samples)
	}
}

// TestFidelityDefaultGroundTruth: with no GroundTruth override the sampler
// simulates the very stream the profile was collected from, and a profile
// that records no source lands as a failure, never as a sample measured on
// some other stream.
func TestFidelityDefaultGroundTruth(t *testing.T) {
	e := mipp.NewEngine(mipp.WithFidelitySampling(mipp.FidelityOptions{
		SampleEvery: 1,
		Budget:      4,
		WorstN:      4,
	}))
	defer e.Close()
	ctx := context.Background()
	if _, err := e.RegisterProfile(ctx, &api.RegisterProfileRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "mcf",
		Uops:          20000,
		Seed:          5,
	}); err != nil {
		t.Fatal(err)
	}
	stream, err := mipp.GenerateWorkload("mcf", 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register("mcf-stream", mipp.NewProfiler().ProfileStream(stream)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"mcf", "mcf-stream"} {
		if _, err := e.Predict(ctx, &api.PredictRequest{
			SchemaVersion: api.SchemaVersion,
			Workload:      w,
			Config:        api.ConfigSpec{Name: "reference"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.FidelityReport(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 1 || rep.Failures != 1 {
		t.Fatalf("report has %d samples and %d failures, want 1 sample (mcf) and 1 failure (mcf-stream)", rep.Samples, rep.Failures)
	}
	cfg := arch.Reference()
	sim, err := mipp.Simulate(cfg, stream, mipp.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := mipp.SimMeasurement(cfg, sim)
	if got := rep.Worst[0]; got.Workload != "mcf" || got.Sim != want {
		t.Fatalf("sample %q measured %+v\nwant the profiled stream's %+v", got.Workload, got.Sim, want)
	}
}
