package mipp_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates the experiment through the shared harness in internal/exp,
// which in turn evaluates the model through the public mipp façade;
// `go run ./cmd/experiments -run <id>` prints the same rows readably.
//
// The benches run on shortened traces and a workload subset so the full
// `go test -bench=. -benchmem` sweep finishes in minutes; cmd/experiments
// defaults to the full suite at 300k uops.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"mipp"
	"mipp/api"
	"mipp/arch"
	"mipp/fidelity"
	"mipp/internal/exp"
	"mipp/server"
)

const benchN = 60_000

var benchSuite = struct {
	once  sync.Once
	suite *exp.Suite
}{}

// suite returns a process-wide memoized experiment suite so consecutive
// benches share profiles and simulation results.
func suite() *exp.Suite {
	benchSuite.once.Do(func() {
		s := exp.NewSuite(benchN)
		// A representative subset: memory-bound chaser, streamer,
		// compute-bound FP, branchy integer, phased mix, stencil.
		s.Workloads = []string{"mcf", "libquantum", "gamess", "gobmk", "gcc", "bwaves", "soplex", "h264ref"}
		benchSuite.suite = s
	})
	return benchSuite.suite
}

func runExp(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	s := suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(s, io.Discard)
	}
}

// Chapter 3 — modeling the core.

func BenchmarkFig3_1_UopsPerInstruction(b *testing.B)   { runExp(b, "fig3.1") }
func BenchmarkFig3_4_DependenceChains(b *testing.B)     { runExp(b, "fig3.4") }
func BenchmarkFig3_6_DispatchRateLimiters(b *testing.B) { runExp(b, "fig3.6") }
func BenchmarkFig3_7_BaseComponentError(b *testing.B)   { runExp(b, "fig3.7") }
func BenchmarkFig3_9_EntropyLinearFit(b *testing.B)     { runExp(b, "fig3.9") }
func BenchmarkFig3_10_PredictorAccuracy(b *testing.B)   { runExp(b, "fig3.10") }

// Chapter 4 — modeling the memory subsystem.

func BenchmarkFig4_2_CacheMPKI(b *testing.B)        { runExp(b, "fig4.2") }
func BenchmarkFig4_3_MLPImpact(b *testing.B)        { runExp(b, "fig4.3") }
func BenchmarkFig4_4_ColdVsCapacity(b *testing.B)   { runExp(b, "fig4.4") }
func BenchmarkFig4_7_StrideCategories(b *testing.B) { runExp(b, "fig4.7") }
func BenchmarkFig4_9_LLCChaining(b *testing.B)      { runExp(b, "fig4.9") }

// Chapter 5 — sampling methodology.

func BenchmarkFig5_2_InstrMixSampling(b *testing.B)   { runExp(b, "fig5.2") }
func BenchmarkFig5_4_ChainInterpolation(b *testing.B) { runExp(b, "fig5.4") }
func BenchmarkFig5_5_ChainSampling(b *testing.B)      { runExp(b, "fig5.5") }
func BenchmarkFig5_6_BranchShare(b *testing.B)        { runExp(b, "fig5.6") }

// Chapter 6 — evaluation.

func BenchmarkTable6_1_ReferenceConfig(b *testing.B)     { runExp(b, "tab6.1") }
func BenchmarkFig6_1_CPIStacks(b *testing.B)             { runExp(b, "fig6.1") }
func BenchmarkFig6_3_SamplingError(b *testing.B)         { runExp(b, "fig6.3") }
func BenchmarkTable6_2_ComponentErrors(b *testing.B)     { runExp(b, "tab6.2") }
func BenchmarkTable6_3_DesignSpace(b *testing.B)         { runExp(b, "tab6.3") }
func BenchmarkFig6_4_SeparateVsCombined(b *testing.B)    { runExp(b, "fig6.4") }
func BenchmarkFig6_5_PerfErrorDesignSpace(b *testing.B)  { runExp(b, "fig6.5") }
func BenchmarkFig6_6_CPIScatter(b *testing.B)            { runExp(b, "fig6.6") }
func BenchmarkFig6_7_PowerStacks(b *testing.B)           { runExp(b, "fig6.7") }
func BenchmarkFig6_8_PowerErrorCDF(b *testing.B)         { runExp(b, "fig6.8") }
func BenchmarkFig6_9_PowerErrorDesignSpace(b *testing.B) { runExp(b, "fig6.9") }
func BenchmarkFig6_10_PowerScatter(b *testing.B)         { runExp(b, "fig6.10") }
func BenchmarkFig6_11_BaseComponent(b *testing.B)        { runExp(b, "fig6.11") }
func BenchmarkFig6_12_DRAMComponent(b *testing.B)        { runExp(b, "fig6.12") }
func BenchmarkFig6_13_LowPowerCore(b *testing.B)         { runExp(b, "fig6.13") }
func BenchmarkFig6_14_PhaseAnalysis(b *testing.B)        { runExp(b, "fig6.14") }
func BenchmarkFig6_15_MLPModelError(b *testing.B)        { runExp(b, "fig6.15") }
func BenchmarkFig6_16_MLPPerfError(b *testing.B)         { runExp(b, "fig6.16") }
func BenchmarkFig6_17_MLPErrorCDF(b *testing.B)          { runExp(b, "fig6.17") }
func BenchmarkFig6_18_PrefetchMLPError(b *testing.B)     { runExp(b, "fig6.18") }

// Serving path — Engine.Evaluate batch throughput, the baseline for the
// mippd query path. Reported as configs/sec (items per wall second) at one
// worker and at GOMAXPROCS, over 2 workloads × the 81-point space sample.

var benchEngine = struct {
	once   sync.Once
	engine *mipp.Engine
	err    error
}{}

func engineForBench(b *testing.B) *mipp.Engine {
	b.Helper()
	benchEngine.once.Do(func() {
		e := mipp.NewEngine()
		for _, w := range []string{"mcf", "gamess"} {
			p, err := mipp.NewProfiler().Profile(w, benchN)
			if err != nil {
				benchEngine.err = err
				return
			}
			if err := e.Register(w, p); err != nil {
				benchEngine.err = err
				return
			}
		}
		// Compile the default predictors up front so the benchmark
		// measures steady-state serving, not first-query compilation.
		for _, w := range []string{"mcf", "gamess"} {
			if _, err := e.Predictor(w, api.PredictorSpec{}); err != nil {
				benchEngine.err = err
				return
			}
		}
		benchEngine.engine = e
	})
	if benchEngine.err != nil {
		b.Fatal(benchEngine.err)
	}
	return benchEngine.engine
}

// evaluateBenchRequest is the serving benches' request: 2 workloads × every
// third Table 6.3 config.
func evaluateBenchRequest(workers int) *api.BatchRequest {
	return &api.BatchRequest{
		SchemaVersion: api.SchemaVersion,
		Workloads:     []string{"mcf", "gamess"},
		Space:         &api.SpaceSpec{Kind: "design", Stride: 3},
		Workers:       workers,
	}
}

// reportConfigs reports items configs per run as configs/s.
func reportConfigs(b *testing.B, items int) {
	if items > 0 && b.Elapsed() > 0 {
		b.ReportMetric(float64(items*b.N)/b.Elapsed().Seconds(), "configs/s")
	}
}

func benchEngineEvaluate(b *testing.B, workers int) {
	e := engineForBench(b)
	req := evaluateBenchRequest(workers)
	items := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := e.Evaluate(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		items = len(resp.Items)
		for _, item := range resp.Items {
			if item.Error != "" {
				b.Fatalf("%s/%s: %s", item.Workload, item.Config, item.Error)
			}
		}
	}
	b.StopTimer()
	reportConfigs(b, items)
}

func BenchmarkEngineEvaluate_1worker(b *testing.B) { benchEngineEvaluate(b, 1) }
func BenchmarkEngineEvaluate_Nworkers(b *testing.B) {
	benchEngineEvaluate(b, 0) // 0 = engine default (GOMAXPROCS)
}

// The rungs above the engine, on EngineEvaluate_1worker's request: the
// server's /v1/evaluate handler in process, and the client's decode of the
// answer it writes, beside json.Unmarshal of the same bytes. CI gates
// ServerEvaluate against EngineEvaluate_1worker and ClientDecodeEvaluate
// against ClientDecodeEvaluateStd.

// serveEvaluate answers one /v1/evaluate request through srv in process.
func serveEvaluate(b *testing.B, srv http.Handler, body []byte) []byte {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("evaluate: %d %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func BenchmarkServerEvaluate(b *testing.B) {
	srv := server.New(engineForBench(b))
	body, err := json.Marshal(evaluateBenchRequest(1))
	if err != nil {
		b.Fatal(err)
	}
	var first api.BatchResponse
	if err := json.Unmarshal(serveEvaluate(b, srv, body), &first); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveEvaluate(b, srv, body)
	}
	b.StopTimer()
	reportConfigs(b, len(first.Items))
}

func benchDecodeEvaluate(b *testing.B, decode func([]byte, *api.BatchResponse) error) {
	body, err := json.Marshal(evaluateBenchRequest(1))
	if err != nil {
		b.Fatal(err)
	}
	answer := serveEvaluate(b, server.New(engineForBench(b)), body)
	items := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp api.BatchResponse
		if err := decode(answer, &resp); err != nil {
			b.Fatal(err)
		}
		items = len(resp.Items)
	}
	b.StopTimer()
	reportConfigs(b, items)
}

func BenchmarkClientDecodeEvaluate(b *testing.B) { benchDecodeEvaluate(b, api.DecodeBatchResponse) }
func BenchmarkClientDecodeEvaluateStd(b *testing.B) {
	benchDecodeEvaluate(b, func(data []byte, v *api.BatchResponse) error { return json.Unmarshal(data, v) })
}

// The search answers' decode rung: the data lines of one recorded hill
// stream, decoded as the client decodes them and by json.Unmarshal. CI gates
// ClientDecodeSearchEvents against ClientDecodeSearchEventsStd.

var hillStream struct {
	once   sync.Once
	events [][]byte
	err    error
}

// recordedHillStream runs one hill job shaped as tierbench's search jobs
// are (ED2P under a 20 W cap, 12 restarts, a budget of 5% of examples/search's
// wide space, seed 1) on mcf in an engine of its own, and returns the data
// lines of the event stream the server serves for it.
func recordedHillStream(b *testing.B) [][]byte {
	hillStream.once.Do(func() {
		hillStream.events, hillStream.err = recordHillStream()
	})
	if hillStream.err != nil {
		b.Fatal(hillStream.err)
	}
	return hillStream.events
}

func recordHillStream() ([][]byte, error) {
	p, err := mipp.NewProfiler().Profile("mcf", benchN)
	if err != nil {
		return nil, err
	}
	e := mipp.NewEngine()
	defer e.Close()
	if err := e.Register("mcf", p); err != nil {
		return nil, err
	}
	space, capW := benchWideSpace(), 20.0
	ctx := context.Background()
	sub, err := e.SubmitSearch(ctx, &api.SearchRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "mcf",
		Space:         api.SpaceSpec{Kind: "parametric", Space: space},
		Strategy:      api.StrategySpec{Kind: "hill", Seed: 1, Restarts: 12},
		Objective:     "ed2p",
		CapWatts:      &capW,
		Budget:        space.Size() / 20,
	})
	if err != nil {
		return nil, err
	}
	if _, err := mipp.WaitSearch(ctx, e, sub.Job.ID, time.Millisecond); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	server.New(e).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search/"+sub.Job.ID+"/events", nil))
	var events [][]byte
	for _, line := range bytes.Split(rec.Body.Bytes(), []byte("\n")) {
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			events = append(events, data)
		}
	}
	return events, nil
}

func benchDecodeSearchEvents(b *testing.B, decode func([]byte, *api.SearchEvent) error) {
	events := recordedHillStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range events {
			if err := decode(data, &api.SearchEvent{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(len(events)), "events/stream")
}

func BenchmarkClientDecodeSearchEvents(b *testing.B) {
	benchDecodeSearchEvents(b, api.DecodeSearchEvent)
}

func BenchmarkClientDecodeSearchEventsStd(b *testing.B) {
	benchDecodeSearchEvents(b, func(data []byte, v *api.SearchEvent) error { return json.Unmarshal(data, v) })
}

// BenchmarkEngineEvaluateFidelity re-measures the batch serving path with
// the fidelity sampler attached (PR 10): the per-config overhead is one
// allocation-free FNV hash in offerFidelity, so throughput must track
// BenchmarkEngineEvaluate_Nworkers — CI gates the ratio. SampleEvery is set
// so the predicate runs on every served config but essentially never
// selects, isolating the steady-state offer cost from simulation cost.
func BenchmarkEngineEvaluateFidelity(b *testing.B) {
	e := mipp.NewEngine(mipp.WithFidelitySampling(mipp.FidelityOptions{
		SampleEvery: 1 << 20,
		Budget:      -1, // unlimited: the budget fast path must not hide the hash
		GroundTruth: benchGroundTruth{},
	}))
	defer e.Close()
	for _, w := range []string{"mcf", "gamess"} {
		p, err := mipp.NewProfiler().Profile(w, benchN)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Register(w, p); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Predictor(w, api.PredictorSpec{}); err != nil {
			b.Fatal(err)
		}
	}
	req := evaluateBenchRequest(0)
	items := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := e.Evaluate(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		items = len(resp.Items)
	}
	b.StopTimer()
	reportConfigs(b, items)
}

// benchGroundTruth is never meaningfully invoked (the predicate all but
// never selects); it exists so the sampler is fully armed.
type benchGroundTruth struct{}

func (benchGroundTruth) GroundTruth(ctx context.Context, workload string, cfg *arch.Config) (fidelity.Measurement, error) {
	return fidelity.Measurement{CPI: 1, Watts: 1}, nil
}

// BenchmarkEnginePredict measures single-query latency through the cached
// serving path — the "nearly free per query" promise the service rests on.
func BenchmarkEnginePredict(b *testing.B) {
	e := engineForBench(b)
	req := &api.PredictRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "mcf",
		Config:        api.ConfigSpec{Name: "reference"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Predict(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	if hits := e.Stats().CacheHits; hits == 0 {
		b.Fatal("predictor cache never hit")
	}
}

// Compile → evaluate split (PR 3): throughput and allocation discipline of
// the batched phase-2 kernel, with the sequential and cold-compile paths
// alongside for the trajectory. CI parses these into BENCH_pr3.json
// (internal/tools/benchjson) and fails if allocs/config on the batched hot
// path exceeds its budget.

var benchPredictor = struct {
	once sync.Once
	pd   *mipp.Predictor
	err  error
}{}

func predictorForBench(b *testing.B) *mipp.Predictor {
	b.Helper()
	benchPredictor.once.Do(func() {
		p, err := mipp.NewProfiler().Profile("mcf", benchN)
		if err != nil {
			benchPredictor.err = err
			return
		}
		benchPredictor.pd, benchPredictor.err = mipp.NewPredictor(p)
	})
	if benchPredictor.err != nil {
		b.Fatal(benchPredictor.err)
	}
	return benchPredictor.pd
}

// reportPerConfig normalizes a phase-2 benchmark to per-configuration
// metrics: throughput, latency and allocations.
func reportPerConfig(b *testing.B, nConfigs int, m0, m1 *runtime.MemStats) {
	total := float64(b.N * nConfigs)
	if total == 0 || b.Elapsed() <= 0 {
		return
	}
	b.ReportMetric(total/b.Elapsed().Seconds(), "configs/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/config")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/total, "allocs/config")
}

// BenchmarkPredictBatch is the batched hot path: one compiled kernel over
// the 81-config stock design-space sample, memos warm.
func BenchmarkPredictBatch(b *testing.B) {
	pd := predictorForBench(b)
	configs := arch.DesignSpaceSample(3)
	ctx := context.Background()
	if _, _, err := pd.PredictBatch(ctx, configs); err != nil {
		b.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pd.PredictBatch(ctx, configs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	reportPerConfig(b, len(configs), &m0, &m1)
}

// BenchmarkPredictBatchInto is the zero-allocation entry point (PR 8): the
// same 81-config mixed-axis sample through one caller-owned BatchResult
// reused across iterations. Steady state allocates nothing — CI gates the
// -benchmem allocs/op column at 0 and throughput at ≥500k configs/s.
func BenchmarkPredictBatchInto(b *testing.B) {
	pd := predictorForBench(b)
	configs := arch.DesignSpaceSample(3)
	ctx := context.Background()
	var br mipp.BatchResult
	if err := pd.PredictBatchInto(ctx, configs, &br); err != nil {
		b.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pd.PredictBatchInto(ctx, configs, &br); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	reportPerConfig(b, len(configs), &m0, &m1)
}

// BenchmarkPredictBatchDVFS is the frequency-sweep fast path (PR 8):
// consecutive configurations that differ only in clock skip the
// clock-independent stage entirely (geometry, miss ratios, dispatch,
// branches) and replay it from the batch's cached invariants, paying only
// the per-clock memory model and the DRAM combine. CI gates this shape at
// ≥1M configs/s and 0 allocs/op.
func BenchmarkPredictBatchDVFS(b *testing.B) {
	pd := predictorForBench(b)
	base := arch.Reference()
	points := arch.DVFSPoints()
	configs := make([]*arch.Config, 0, 100*len(points))
	for len(configs) < cap(configs) {
		for _, p := range points {
			configs = append(configs, arch.WithDVFS(base, p))
		}
	}
	ctx := context.Background()
	var br mipp.BatchResult
	if err := pd.PredictBatchInto(ctx, configs, &br); err != nil {
		b.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pd.PredictBatchInto(ctx, configs, &br); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	reportPerConfig(b, len(configs), &m0, &m1)
}

// BenchmarkPredictSequential is the same space through one-at-a-time
// Predict calls — what the batched path saves in per-call overhead.
func BenchmarkPredictSequential(b *testing.B) {
	pd := predictorForBench(b)
	configs := arch.DesignSpaceSample(3)
	for _, cfg := range configs {
		if _, err := pd.Predict(cfg); err != nil {
			b.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			if _, err := pd.Predict(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	reportPerConfig(b, len(configs), &m0, &m1)
}

// BenchmarkPredictColdCompile measures phase 1: building a fresh compiled
// predictor (StatStack curves, per-micro MLP models) plus one reference
// query — the cost every (workload, option-set) pair pays exactly once.
func BenchmarkPredictColdCompile(b *testing.B) {
	p, err := mipp.NewProfiler().Profile("mcf", benchN)
	if err != nil {
		b.Fatal(err)
	}
	ref := arch.Reference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold, err := mipp.NewPredictor(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cold.Predict(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictColdFill measures the first pass over a search-sized
// batch: a fresh mcf Predictor runs PredictBatchInto over 6,144 seeded
// configs of examples/search's wide space (its search budget), filling
// every memo table, then runs the same call again warm. cold/warm compares
// two passes over the same configs on the same host, so it survives a
// change of runner; CI gates it.
func BenchmarkPredictColdFill(b *testing.B) {
	p, err := mipp.NewProfiler().Profile("mcf", benchN)
	if err != nil {
		b.Fatal(err)
	}
	space := benchWideSpace()
	rng := rand.New(rand.NewSource(18))
	configs := make([]*arch.Config, space.Size()/20)
	for i := range configs {
		configs[i] = space.At(rng.Intn(space.Size()))
	}
	ctx := context.Background()
	var br mipp.BatchResult
	var cold, warm time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pd, err := mipp.NewPredictor(p)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if err := pd.PredictBatchInto(ctx, configs, &br); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := pd.PredictBatchInto(ctx, configs, &br); err != nil {
			b.Fatal(err)
		}
		cold += t1.Sub(t0)
		warm += time.Since(t1)
	}
	b.ReportMetric(cold.Seconds()/warm.Seconds(), "cold/warm")
	b.ReportMetric(cold.Seconds()*1e3/float64(b.N), "cold-ms/op")
}

// benchWideSpace is examples/search's 122,880-point space.
func benchWideSpace() *arch.Space {
	return &arch.Space{
		Widths: []int{1, 2, 3, 4, 5, 6},
		ROBs:   []int{16, 24, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 512},
		L2Bytes: []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10,
			1 << 20, 2 << 20, 4 << 20, 8 << 20},
		L3Bytes: []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20,
			16 << 20, 32 << 20, 64 << 20, 128 << 20},
		Clocks: []arch.DVFSPoint{
			{FrequencyGHz: 1.2, VoltageV: 0.85}, {FrequencyGHz: 1.6, VoltageV: 0.95},
			{FrequencyGHz: 2.0, VoltageV: 1.0}, {FrequencyGHz: 2.2, VoltageV: 1.03},
			{FrequencyGHz: 2.4, VoltageV: 1.05}, {FrequencyGHz: 2.66, VoltageV: 1.1},
			{FrequencyGHz: 2.8, VoltageV: 1.13}, {FrequencyGHz: 3.0, VoltageV: 1.16},
			{FrequencyGHz: 3.2, VoltageV: 1.2}, {FrequencyGHz: 3.33, VoltageV: 1.25},
		},
		Prefetcher: []bool{false, true},
	}
}

// BenchmarkProfileStream generates and profiles 4 catalog workloads at 100k
// uops per iteration, timing the two steps apart. uops/s is the profiler's
// throughput; profile/generate is profiling time over the generation time of
// the same streams, both measured in this benchmark, so it survives a change
// of runner; CI gates it as a ceiling.
func BenchmarkProfileStream(b *testing.B) {
	const n = 100_000
	workloads := []string{"mcf", "gcc", "libquantum", "soplex"}
	pr := mipp.NewProfiler()
	var gen, prof time.Duration
	var uops int64
	for i := 0; i < b.N; i++ {
		for _, w := range workloads {
			t0 := time.Now()
			s, err := mipp.GenerateWorkload(w, n, 0)
			if err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			p := pr.ProfileStream(s)
			prof += time.Since(t1)
			gen += t1.Sub(t0)
			uops += p.TotalUops()
		}
	}
	b.ReportMetric(float64(uops)/prof.Seconds(), "uops/s")
	b.ReportMetric(prof.Seconds()/gen.Seconds(), "profile/generate")
}

// Chapter 7 — applications.

func BenchmarkFig7_1_LibquantumWhatIf(b *testing.B)   { runExp(b, "fig7.1") }
func BenchmarkFig7_2_AppSpecificCore(b *testing.B)    { runExp(b, "fig7.2") }
func BenchmarkTable7_1_PowerConstrained(b *testing.B) { runExp(b, "tab7.1") }
func BenchmarkTable7_2_DVFSSettings(b *testing.B)     { runExp(b, "tab7.2") }
func BenchmarkFig7_3_ED2P(b *testing.B)               { runExp(b, "fig7.3") }
func BenchmarkFig7_4_ParetoFrontiers(b *testing.B)    { runExp(b, "fig7.4") }
func BenchmarkFig7_6_DesignSpaceError(b *testing.B)   { runExp(b, "fig7.6") }
func BenchmarkFig7_7_ParetoMetrics(b *testing.B)      { runExp(b, "fig7.7") }
func BenchmarkFig7_9_HVR(b *testing.B)                { runExp(b, "fig7.9") }
func BenchmarkFig7_10_EmpiricalPareto(b *testing.B)   { runExp(b, "fig7.10") }
func BenchmarkFig7_11_EmpiricalMetrics(b *testing.B)  { runExp(b, "fig7.11") }
