package mipp

import (
	"mipp/obs"
)

// Package-level kernel counters. They live on obs.Default() — not on a
// per-engine registry — because the batched kernel is package-level code
// shared by every Engine in the process, and because the hot path can
// afford exactly two atomic adds per batch, not a registry lookup. The
// per-daemon registries chain to Default() with obs.WithBase, so /metrics
// always includes them.
var (
	kernelBatches obs.Counter
	kernelConfigs obs.Counter
)

func init() {
	d := obs.Default()
	d.RegisterCounter("mipp_kernel_batches_total",
		"Kernel invocations: one per Predict, PredictBatchInto, sweep or engine request fan-out.", &kernelBatches)
	d.RegisterCounter("mipp_kernel_configs_total",
		"Configurations evaluated by the kernel, each once, single predictions included.", &kernelConfigs)
}

// engineMetrics holds the Engine-owned instruments that are observed on
// request paths. They are constructed once in NewEngine (never on a hot
// path — obshygiene enforces this) and exist whether or not the engine is
// ever attached to a registry: Observe/Set are atomic ops either way, and
// MetricsInto only decides whether a scrape can see them.
type engineMetrics struct {
	compileSeconds   *obs.Histogram // predictor compile (profile resolve + NewPredictor)
	evaluateSeconds  *obs.Histogram // one request's kernel fan-out (one window for streamed sweeps)
	storeLoadSeconds *obs.Histogram // profile resolution that had to hit the store

	searchGenSeconds  *obs.Histogram // one search-strategy generation
	searchEvalsPerSec obs.Gauge      // configs/s of the most recent generation
	searchFrontSize   obs.Gauge      // Pareto-front size of the most recent front event

	streamSubscribers obs.Gauge   // live search-event subscribers across all jobs
	streamDropped     obs.Counter // events dropped on slow subscriber channels
}

func newEngineMetrics() *engineMetrics {
	return &engineMetrics{
		compileSeconds:   obs.NewHistogram(obs.DefBuckets...),
		evaluateSeconds:  obs.NewHistogram(obs.DefBuckets...),
		storeLoadSeconds: obs.NewHistogram(obs.DefBuckets...),
		searchGenSeconds: obs.NewHistogram(obs.DefBuckets...),
	}
}

// MetricsInto registers the engine's instruments — and scrape-time
// read-backs of its registry, predictor-cache, and store counters — on reg.
// Call it once per engine per registry at startup; /healthz keeps reading
// the same instruments through Stats(), so the two surfaces can never
// disagree.
func (e *Engine) MetricsInto(reg *obs.Registry) {
	reg.RegisterCounter("mipp_engine_predictor_cache_hits_total",
		"Predictor-cache lookups answered by a cached entry.", &e.hits)
	reg.RegisterCounter("mipp_engine_predictor_cache_misses_total",
		"Predictor-cache lookups that had to compile.", &e.misses)
	reg.GaugeFunc("mipp_engine_cached_predictors",
		"Compiled (workload, option set) predictors currently cached.", func() float64 {
			e.mu.RLock()
			n := len(e.predictors)
			e.mu.RUnlock()
			return float64(n)
		})
	reg.GaugeFunc("mipp_engine_profiles",
		"Registered workload profiles (in-memory and store-backed).", func() float64 {
			return float64(e.Stats().Profiles)
		})
	reg.RegisterHistogram("mipp_engine_compile_seconds",
		"Predictor compile duration (profile resolve + model build).", e.metrics.compileSeconds)
	reg.RegisterHistogram("mipp_engine_evaluate_seconds",
		"Kernel fan-out duration of one engine request (one window for streamed sweeps).", e.metrics.evaluateSeconds)
	reg.RegisterHistogram("mipp_engine_store_load_seconds",
		"Profile resolutions that went to the backing store.", e.metrics.storeLoadSeconds)

	reg.RegisterGauge("mipp_search_jobs_inflight",
		"Search jobs currently running.", &e.search.inFlight)
	reg.RegisterCounter("mipp_search_jobs_completed_total",
		"Search jobs finished (done, failed or cancelled).", &e.search.completed)
	reg.RegisterHistogram("mipp_search_generation_seconds",
		"Duration of one search-strategy generation.", e.metrics.searchGenSeconds)
	reg.RegisterGauge("mipp_search_evals_per_second",
		"Configurations per second of the most recent search generation.", &e.metrics.searchEvalsPerSec)
	reg.RegisterGauge("mipp_search_front_size",
		"Pareto-front size of the most recent front event.", &e.metrics.searchFrontSize)

	reg.RegisterGauge("mipp_stream_subscribers",
		"Live search-event stream subscribers.", &e.metrics.streamSubscribers)
	reg.RegisterCounter("mipp_stream_dropped_events_total",
		"Search events dropped on slow subscriber channels.", &e.metrics.streamDropped)

	if e.fid != nil {
		e.fid.rec.MetricsInto(reg)
		reg.RegisterCounter("mipp_fidelity_offered_total",
			"Served configurations selected by the fidelity sampling predicate.", &e.fid.offered)
		reg.RegisterCounter("mipp_fidelity_dropped_total",
			"Selected configurations lost to a full sampler queue.", &e.fid.dropped)
		reg.RegisterHistogram("mipp_fidelity_sim_seconds",
			"Ground-truth reference simulation duration.", e.fid.simSeconds)
		reg.GaugeFunc("mipp_fidelity_budget_remaining",
			"Ground-truth simulations left in the sampler budget.", func() float64 {
				if b := e.fid.budget.Load(); b > 0 && b < 1<<59 {
					return float64(b)
				} else if b <= 0 {
					return 0
				}
				return -1 // unlimited
			})
	}

	if e.store == nil {
		return
	}
	stats := func(read func(s StoreStats) uint64) func() uint64 {
		return func() uint64 { return read(e.store.Stats()) }
	}
	reg.GaugeFunc("mipp_store_objects",
		"Stored profiles (index entries).", func() float64 {
			return float64(e.store.Stats().Objects)
		})
	reg.GaugeFunc("mipp_store_resident_entries",
		"Decoded profiles currently held in memory.", func() float64 {
			return float64(e.store.Stats().ResidentEntries)
		})
	reg.GaugeFunc("mipp_store_resident_bytes",
		"Bytes of decoded profiles currently held in memory.", func() float64 {
			return float64(e.store.Stats().ResidentBytes)
		})
	reg.GaugeFunc("mipp_store_max_resident_bytes",
		"Configured LRU residency bound (0 = unbounded).", func() float64 {
			return float64(e.store.Stats().MaxResidentBytes)
		})
	reg.CounterFunc("mipp_store_hits_total",
		"Store lookups answered from resident memory.",
		stats(func(s StoreStats) uint64 { return s.Hits }))
	reg.CounterFunc("mipp_store_misses_total",
		"Store lookups that had to load from durable storage.",
		stats(func(s StoreStats) uint64 { return s.Misses }))
	reg.CounterFunc("mipp_store_loads_total",
		"Completed store loads (disk reads or network fetches).",
		stats(func(s StoreStats) uint64 { return s.Loads }))
	reg.CounterFunc("mipp_store_evictions_total",
		"Entries evicted from resident memory by the LRU bound.",
		stats(func(s StoreStats) uint64 { return s.Evictions }))
	reg.CounterFunc("mipp_store_evicted_bytes_total",
		"Bytes evicted from resident memory by the LRU bound.",
		stats(func(s StoreStats) uint64 { return s.EvictedBytes }))
	reg.CounterFunc("mipp_store_revalidations_total",
		"Remote-store index revalidations, by result.",
		stats(func(s StoreStats) uint64 { return s.Revalidations304 }),
		obs.Label{Key: "result", Value: "not_modified"})
	reg.CounterFunc("mipp_store_revalidations_total",
		"Remote-store index revalidations, by result.",
		stats(func(s StoreStats) uint64 { return s.RevalidationsFull }),
		obs.Label{Key: "result", Value: "full"})
}

// logf logs through the engine's logger; a nil logger (the default)
// discards, keeping embedded-library use silent.
func (e *Engine) logf(format string, args ...any) {
	if e.logger != nil {
		e.logger.Printf(format, args...)
	}
}
