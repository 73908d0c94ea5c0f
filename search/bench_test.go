package search_test

// Search-driver benchmarks: throughput (evals/s) and allocation discipline
// (allocs/eval) of the strategies driving the batched kernel through the
// Runner. CI parses these into BENCH_pr8.json (internal/tools/benchjson)
// and fails if the random-sampling driver's evals/s falls below 1/1.2 of
// the raw evaluator kernel's, or if its allocs/eval or the hill climb's
// bytes per job exceed their ceilings (see ci.yml). The Runner fills each
// generation into a reused config slab and borrows every per-job buffer
// from a pool, so a lazily-generated point costs one allocation: its name.

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mipp"
	"mipp/arch"
	"mipp/search"
)

var benchPredictor = struct {
	sync.Once
	pd  *mipp.Predictor
	err error
}{}

func benchPd(b *testing.B) *mipp.Predictor {
	b.Helper()
	benchPredictor.Do(func() {
		p, err := mipp.NewProfiler().Profile("mcf", 60_000)
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

// benchSpace is a ~61k-point space, large enough that random sampling and
// the genetic strategy behave as they do in production (sparse coverage,
// lazy materialization).
func benchSpace() *arch.Space {
	return &arch.Space{
		Name:   "bench-61k",
		Widths: []int{1, 2, 3, 4, 5, 6},
		ROBs:   []int{32, 48, 64, 96, 128, 160, 192, 256},
		L2Bytes: []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20,
			2 << 20, 4 << 20, 8 << 20, 16 << 20},
		L3Bytes: []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20},
		Clocks: []arch.DVFSPoint{
			{FrequencyGHz: 1.6, VoltageV: 0.95}, {FrequencyGHz: 2.0, VoltageV: 1.0},
			{FrequencyGHz: 2.66, VoltageV: 1.1}, {FrequencyGHz: 3.2, VoltageV: 1.2},
		},
		Prefetcher: []bool{false, true},
	}
}

// benchSearch runs one strategy per iteration and reports per-evaluation
// throughput and allocations (Mallocs across all goroutines, so the worker
// pool's cost is included, not hidden).
func benchSearch(b *testing.B, st search.Strategy, budget int) {
	pd := benchPd(b)
	space := benchSpace()
	ev := mipp.NewSearchEvaluator(pd, 0)
	ctx := context.Background()
	opts := search.Options{Seed: 1, Budget: budget, Objective: search.ObjectiveED2P}

	// Warm the predictor memos so the benchmark measures the driver, not
	// first-touch compilation.
	if _, err := search.Run(ctx, ev, space, search.Random{Samples: 64}, opts); err != nil {
		b.Fatal(err)
	}

	evals := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := search.Run(ctx, ev, space, st, opts)
		if err != nil {
			b.Fatal(err)
		}
		evals += rep.Evaluations
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if evals == 0 || b.Elapsed() <= 0 {
		return
	}
	b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(evals), "allocs/eval")
}

// BenchmarkSearchEvaluatorKernel is the raw kernel baseline for the driver
// benches: the same evaluator the Runner drives, fed one 2048-config
// generation per iteration, with no strategy or Runner bookkeeping on top.
// The generation is a seeded random distinct sample in ascending order, the
// exact workload shape the random driver hands the kernel. It is
// materialized with At each time, a new config and a name per point, where
// the Runner fills a reused slab and pays only the name; beyond that step
// the two benches differ only in the search layer itself. CI holds
// BenchmarkSearchRandom's evals/s against this number (target within 1.2×;
// the CI floor carries noise margin — see ci.yml), so that layer cannot
// quietly grow overhead on the hot path.
func BenchmarkSearchEvaluatorKernel(b *testing.B) {
	benchEvaluator(b, benchSpace(), 1)
}

// BenchmarkSearchEvaluatorWide is the kernel baseline's evaluator on the
// shape a search over examples/search's 122,880-point space hands it:
// eight seeded 2048-config generations of that space, in turn. The space
// has 2,560 distinct memory configurations (ROB × L3 × clock × prefetcher)
// against benchSpace's 256, so CI holds this bench's evals/s against the
// kernel baseline's: a memory stage whose cost grows once a search leaves a
// small grid shows as a falling ratio.
func BenchmarkSearchEvaluatorWide(b *testing.B) {
	benchEvaluator(b, wideSpace(), 8)
}

// wideSpace is examples/search's 122,880-point space.
func wideSpace() *arch.Space {
	return &arch.Space{
		Name:   "wide-123k",
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

// benchEvaluator feeds the search evaluator nGens seeded 2048-config
// generations of space, one per iteration in turn: each a random distinct
// sample in ascending order, materialized from the space every time. Every
// generation is evaluated once before the timer starts, so the memo tables
// are warm.
func benchEvaluator(b *testing.B, space *arch.Space, nGens int) {
	pd := benchPd(b)
	ev := mipp.NewSearchEvaluator(pd, 0)
	ctx := context.Background()

	n := space.Size()
	const gen = 2048
	rng := rand.New(rand.NewSource(1))
	gens := make([][]int, nGens)
	for g := range gens {
		drawn := make(map[int]struct{}, gen)
		indices := make([]int, 0, gen)
		for len(indices) < gen {
			i := rng.Intn(n)
			if _, ok := drawn[i]; !ok {
				drawn[i] = struct{}{}
				indices = append(indices, i)
			}
		}
		slices.Sort(indices)
		gens[g] = indices
	}
	configs := make([]*arch.Config, gen)
	fill := func(indices []int) {
		for i, idx := range indices {
			configs[i] = space.At(idx)
		}
	}
	for _, indices := range gens {
		fill(indices)
		if _, err := ev(ctx, configs); err != nil {
			b.Fatal(err)
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(gens[i%nGens])
		if _, err := ev(ctx, configs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if b.Elapsed() <= 0 {
		return
	}
	evals := float64(b.N) * gen
	b.ReportMetric(evals/b.Elapsed().Seconds(), "evals/s")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/evals, "allocs/eval")
}

// BenchmarkSearchRandom is the budgeted driver: pure sampling overhead on
// top of the batched kernel.
func BenchmarkSearchRandom(b *testing.B) {
	benchSearch(b, search.Random{Samples: 2048}, 2048)
}

// BenchmarkSearchGenetic adds the evolutionary bookkeeping (selection,
// crossover, memoized revisits).
func BenchmarkSearchGenetic(b *testing.B) {
	benchSearch(b, search.Genetic{Population: 64, Generations: 24}, 2048)
}

// BenchmarkSearchHill adds the neighborhood walks.
func BenchmarkSearchHill(b *testing.B) {
	benchSearch(b, search.HillClimb{Restarts: 8}, 2048)
}
