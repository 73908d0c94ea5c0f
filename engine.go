package mipp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mipp/api"
	"mipp/internal/dse"
	"mipp/internal/power"
	"mipp/obs"
)

// Engine is the in-process Evaluator: a concurrency-safe registry of named
// workload profiles that lazily compiles and caches one Predictor per
// (workload, option set) and fans batched evaluation requests out over the
// same worker pool Sweep uses.
//
// Profiling is the expensive step; an Engine amortizes it across millions
// of queries. Register each workload once (directly, or through
// RegisterProfile requests), then issue Predict/Sweep/Evaluate/Pareto
// requests from any number of goroutines. Re-registering a name replaces
// its profile and invalidates every predictor cached for it.
type Engine struct {
	workers int

	// store, when set, is the durable backing registry: Register writes
	// through, and lookups of names absent from the in-memory map
	// lazy-load from it — so a store-backed engine serves its whole
	// on-disk catalog after a restart without re-profiling. The store
	// owns profile residency (LRU-bounded); the profiles map holds only
	// storeless registrations.
	store ProfileStore

	mu         sync.RWMutex
	profiles   map[string]*Profile
	predictors map[predictorKey]*predictorEntry

	// hits and misses are obs instruments (read back by Stats for /healthz
	// and registered on /metrics by MetricsInto) rather than raw atomics,
	// so the two surfaces share one source of truth.
	hits   obs.Counter
	misses obs.Counter

	// logger, when set, receives search-job lifecycle lines and trace-span
	// lines (obs.StartSpan is logger-gated); nil keeps library use silent.
	logger *log.Logger

	// metrics holds the engine-owned latency histograms and search gauges
	// (metrics.go); always non-nil for engines built with NewEngine.
	metrics *engineMetrics

	// search holds the asynchronous design-space search jobs (jobs.go).
	search searchJobs

	// fidOpts is set by WithFidelitySampling; fid is the running sampler
	// (fidelity_engine.go), nil when the observatory is disabled.
	fidOpts *FidelityOptions
	fid     *fidelitySampler
}

type predictorKey struct {
	workload string
	options  string // api.PredictorSpec.Key()
}

// predictorEntry compiles lazily: the registry holds the entry under a
// short-lived lock while the (possibly slow) compile runs inside the
// entry's own once, so concurrent requests for the same key share one
// compile and requests for other keys never wait on it. Every path —
// creator and cache hits alike — runs once.Do(compile): whichever caller
// arrives first does the work, the rest block until it is done.
type predictorEntry struct {
	once    sync.Once
	compile func()
	pd      *Predictor
	err     error
	// done is set when compile has finished: pd and err may be read
	// without once.Do only after done reads true.
	done atomic.Bool
}

// EngineOption customizes an Engine.
type EngineOption func(*Engine)

// WithEngineWorkers sets the default worker-pool size for batched requests
// that do not specify their own (default GOMAXPROCS).
func WithEngineWorkers(n int) EngineOption {
	return func(e *Engine) { e.workers = n }
}

// WithEngineStore backs the engine with a durable profile store (see
// mipp/store): Register and RegisterProfile write through to it, and
// Predict/Sweep/Evaluate/search resolve workload names the engine does not
// hold in memory by lazy-loading from the store — a miss in both still
// yields ErrUnknownWorkload.
func WithEngineStore(st ProfileStore) EngineOption {
	return func(e *Engine) { e.store = st }
}

// WithEngineLogger sets the logger for search-job lifecycle lines and trace
// spans: with one, every request carrying an X-Request-Id decomposes in the
// logs into store-load, compile, and per-generation evaluate spans. The
// default (nil) disables both.
func WithEngineLogger(l *log.Logger) EngineOption {
	return func(e *Engine) { e.logger = l }
}

// NewEngine returns an empty engine ready for Register.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{
		workers:    runtime.GOMAXPROCS(0),
		profiles:   make(map[string]*Profile),
		predictors: make(map[predictorKey]*predictorEntry),
		metrics:    newEngineMetrics(),
	}
	for _, o := range opts {
		o(e)
	}
	if e.fidOpts != nil {
		// The sampler needs the finished engine (profile resolution, the
		// predictor cache), so it starts after every option has applied.
		e.fid = newFidelitySampler(e, *e.fidOpts)
	}
	return e
}

// ProfileStore returns the engine's backing store (nil when the engine
// runs without one). It is the seam the server's /v1/store endpoints
// publish: when the store also implements ObjectStore, peers can replicate
// this engine's catalog.
func (e *Engine) ProfileStore() ProfileStore { return e.store }

// Register installs profile p under name (empty name defaults to the
// profile's workload name). Re-registering a name replaces the profile and
// drops every predictor cached for it.
func (e *Engine) Register(name string, p *Profile) error {
	if p == nil || p.raw == nil {
		return fmt.Errorf("%w: Register(%q): nil or empty profile", ErrBadRequest, name)
	}
	if name == "" {
		name = p.Workload()
	}
	if name == "" {
		return fmt.Errorf("%w: Register: profile has no workload name and none was given", ErrBadRequest)
	}
	if e.store != nil {
		// Write-through: the store owns residency (and may evict the
		// body later; lookups reload it transparently), so the profile
		// is not duplicated into the in-memory map.
		if _, err := e.store.Put(name, p); err != nil {
			return fmt.Errorf("mipp: Register(%q): %w", name, err)
		}
		e.mu.Lock()
		delete(e.profiles, name)
		e.invalidateLocked(name)
		e.mu.Unlock()
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.profiles[name] = p
	e.invalidateLocked(name)
	return nil
}

// Remove drops a registered profile — from memory and from the backing
// store, when one is configured — and its cached predictors, reporting
// whether the name was registered. A store deletion failure is reported as
// false; callers that need the distinction (the profile may then survive
// in the store and reappear on the next lookup) should use DeleteProfile,
// which surfaces the error.
func (e *Engine) Remove(name string) bool {
	ok, err := e.remove(name)
	return ok && err == nil
}

// remove is the shared removal path of Remove and DeleteProfile.
func (e *Engine) remove(name string) (bool, error) {
	e.mu.Lock()
	_, ok := e.profiles[name]
	delete(e.profiles, name)
	e.invalidateLocked(name)
	e.mu.Unlock()
	if e.store != nil {
		deleted, err := e.store.Delete(name)
		if err != nil {
			return ok, fmt.Errorf("mipp: remove %q: %w", name, err)
		}
		ok = ok || deleted
		// Invalidate again: a Predict racing this removal may have
		// resolved the profile from the store after the first
		// invalidation but before the store delete, caching a fresh
		// predictor for the now-deleted workload.
		e.mu.Lock()
		e.invalidateLocked(name)
		e.mu.Unlock()
	}
	return ok, nil
}

// profileExists checks that name resolves without loading a store-backed
// body (admission checks must not pay a disk read, and a corrupt stored
// object is an existing workload whose load fails — not an unknown name).
func (e *Engine) profileExists(name string) error {
	e.mu.RLock()
	_, ok := e.profiles[name]
	e.mu.RUnlock()
	if ok {
		return nil
	}
	if e.store != nil {
		if _, ok := e.store.Info(name); ok {
			return nil
		}
	}
	return fmt.Errorf("%w: %q (registered: %v)", ErrUnknownWorkload, name, e.WorkloadNames())
}

// compiled reports whether the predictor cache holds a predictor for
// (workload, spec) that finished compiling without error. A workload
// removed through this engine has no such entry (invalidateLocked drops
// them).
func (e *Engine) compiled(workload string, spec api.PredictorSpec) bool {
	e.mu.RLock()
	entry, ok := e.predictors[predictorKey{workload: workload, options: spec.Key()}]
	e.mu.RUnlock()
	return ok && entry.done.Load() && entry.err == nil
}

// resolveProfile returns the profile registered under name, lazy-loading it
// from the backing store when it is not held in memory.
func (e *Engine) resolveProfile(name string) (*Profile, error) {
	return e.resolveProfileCtx(context.Background(), name)
}

// resolveProfileCtx is resolveProfile with request context: a resolution
// that goes to the backing store is timed into the store-load histogram and
// wrapped in a "store.load" span parented on ctx's current span, so a slow
// request's store time is visible in the logs.
func (e *Engine) resolveProfileCtx(ctx context.Context, name string) (*Profile, error) {
	e.mu.RLock()
	p := e.profiles[name]
	e.mu.RUnlock()
	if p != nil {
		return p, nil
	}
	if e.store != nil {
		_, span := obs.StartSpan(ctx, e.logger, api.RequestIDFromContext(ctx), "store.load")
		t := obs.StartTimer()
		sp, ok, err := e.store.Get(name)
		t.ObserveInto(e.metrics.storeLoadSeconds)
		span.Finish()
		if err != nil {
			return nil, fmt.Errorf("mipp: workload %q: %w", name, err)
		}
		if ok {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownWorkload, name, e.WorkloadNames())
}

func (e *Engine) invalidateLocked(name string) {
	for k := range e.predictors {
		if k.workload == name {
			delete(e.predictors, k)
		}
	}
}

// Profile returns the profile registered under name, loading it from the
// backing store when necessary.
func (e *Engine) Profile(name string) (*Profile, bool) {
	p, err := e.resolveProfile(name)
	return p, err == nil
}

// WorkloadNames returns the registered profile names — in-memory and
// store-backed — sorted.
func (e *Engine) WorkloadNames() []string {
	e.mu.RLock()
	names := make([]string, 0, len(e.profiles))
	for n := range e.profiles {
		names = append(names, n)
	}
	e.mu.RUnlock()
	if e.store != nil {
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			seen[n] = true
		}
		for _, n := range e.store.Names() {
			if !seen[n] {
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// EngineStats snapshots the registry and predictor cache.
type EngineStats struct {
	// Profiles is the number of registered workload profiles.
	Profiles int
	// CachedPredictors is the number of compiled (workload, option set)
	// predictors currently cached.
	CachedPredictors int
	// CacheHits and CacheMisses count predictor-cache lookups since the
	// engine was created; invalidated entries count as new misses when
	// recompiled.
	CacheHits, CacheMisses uint64
	// SearchJobsInFlight and SearchJobsCompleted count asynchronous
	// search jobs currently running and finished (done, failed or
	// cancelled) since the engine was created.
	SearchJobsInFlight  int
	SearchJobsCompleted uint64
	// Store snapshots the backing profile store's counters; nil when the
	// engine has no store.
	Store *StoreStats
}

// Stats returns current registry and cache counters.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	st := EngineStats{
		Profiles:            len(e.profiles),
		CachedPredictors:    len(e.predictors),
		CacheHits:           e.hits.Value(),
		CacheMisses:         e.misses.Value(),
		SearchJobsInFlight:  int(e.search.inFlight.Value()),
		SearchJobsCompleted: e.search.completed.Value(),
	}
	e.mu.RUnlock()
	if e.store != nil {
		ss := e.store.Stats()
		st.Store = &ss
		st.Profiles += ss.Objects
	}
	return st
}

// predictorOptions lowers a wire spec to the façade's functional options.
// Unknown names were rejected by spec.Validate; this switch only needs the
// accepted vocabulary.
func predictorOptions(spec api.PredictorSpec) ([]PredictorOption, error) {
	var opts []PredictorOption
	switch spec.MLPMode {
	case "", "stride":
		// Default.
	case "cold-miss":
		opts = append(opts, WithMLPMode(MLPColdMiss))
	case "none":
		opts = append(opts, WithMLPMode(MLPNone))
	default:
		return nil, fmt.Errorf("%w: unknown mlp_mode %q", ErrBadRequest, spec.MLPMode)
	}
	switch spec.DispatchModel {
	case "", "full":
	case "instructions":
		opts = append(opts, WithDispatchModel(DispatchInstructions))
	case "uops":
		opts = append(opts, WithDispatchModel(DispatchUops))
	case "critical":
		opts = append(opts, WithDispatchModel(DispatchCritical))
	default:
		return nil, fmt.Errorf("%w: unknown dispatch_model %q", ErrBadRequest, spec.DispatchModel)
	}
	if spec.Combined {
		opts = append(opts, WithCombinedEvaluation())
	}
	if spec.BranchMissRate != nil {
		opts = append(opts, WithBranchMissRate(*spec.BranchMissRate))
	}
	if spec.NoLLCChain {
		opts = append(opts, WithoutLLCChain())
	}
	if spec.NoBusQueue {
		opts = append(opts, WithoutBusQueue())
	}
	if spec.Prefetcher != nil {
		opts = append(opts, WithPrefetcher(*spec.Prefetcher))
	}
	return opts, nil
}

// Predictor returns the cached predictor for (workload, spec), compiling it
// on first use. Concurrent callers with the same key share one compile. The
// profile is resolved inside the compile — after the entry is published but
// outside every engine lock — so a store-backed engine's disk loads never
// stall unrelated requests, and a Register racing the compile still
// invalidates the entry it observes.
func (e *Engine) Predictor(workload string, spec api.PredictorSpec) (*Predictor, error) {
	return e.predictor(context.Background(), workload, spec)
}

// predictor is Predictor with request context: a compile triggered by this
// lookup is timed into the compile histogram and wrapped in an
// "engine.compile" span parented on ctx's current span (the creating
// caller's — concurrent callers sharing the compile attach their wait to
// whichever request first published the entry).
func (e *Engine) predictor(ctx context.Context, workload string, spec api.PredictorSpec) (*Predictor, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	key := predictorKey{workload: workload, options: spec.Key()}

	e.mu.RLock()
	entry, ok := e.predictors[key]
	e.mu.RUnlock()
	if !ok {
		e.mu.Lock()
		// Re-check under the write lock: another goroutine may have
		// inserted the entry.
		if entry, ok = e.predictors[key]; !ok {
			entry = &predictorEntry{}
			entry.compile = func() {
				defer entry.done.Store(true)
				cctx, span := obs.StartSpan(ctx, e.logger, api.RequestIDFromContext(ctx), "engine.compile")
				t := obs.StartTimer()
				defer func() {
					t.ObserveInto(e.metrics.compileSeconds)
					span.Finish()
				}()
				profile, err := e.resolveProfileCtx(cctx, workload)
				if err != nil {
					entry.err = err
					return
				}
				opts, err := predictorOptions(spec)
				if err != nil {
					entry.err = err
					return
				}
				entry.pd, entry.err = NewPredictor(profile, opts...)
			}
			e.predictors[key] = entry
		}
		e.mu.Unlock()
	}
	if ok {
		e.hits.Inc()
	} else {
		e.misses.Inc()
	}
	entry.once.Do(entry.compile)
	if entry.err != nil {
		// Do not cache failures: unregistered names must not grow the
		// predictor map (and a later Register must compile fresh even if
		// its invalidation raced this insert), and a transient store
		// load error must not poison this (workload, spec) key forever.
		e.mu.Lock()
		if e.predictors[key] == entry {
			delete(e.predictors, key)
		}
		e.mu.Unlock()
	}
	return entry.pd, entry.err
}

// apiResult lowers a native prediction to the wire DTO, computing every
// derived metric so clients stay model-free.
func apiResult(r *Result, withMicroCPI bool) *api.Result {
	ar := &api.Result{
		Workload:     r.Workload,
		Config:       r.Config,
		FrequencyGHz: r.FrequencyGHz,
		Cycles:       r.Cycles,
		Uops:         r.Uops,
		Instructions: r.Instructions,
		CPI:          r.CPI(),
		TimeSeconds:  r.TimeSeconds(),
		CPIStack: api.CPIStack{
			Base:   r.Stack.Cycles[CPIBase],
			Branch: r.Stack.Cycles[CPIBranch],
			ICache: r.Stack.Cycles[CPIICache],
			LLCHit: r.Stack.Cycles[CPILLCHit],
			DRAM:   r.Stack.Cycles[CPIDRAM],
		},
		Power: api.PowerStack{
			Static: r.Power.Watts[power.Static],
			Core:   r.Power.Watts[power.CoreDyn],
			FU:     r.Power.Watts[power.FUDyn],
			Cache:  r.Power.Watts[power.CacheDyn],
			DRAM:   r.Power.Watts[power.DRAMDyn],
			BPred:  r.Power.Watts[power.BPredDyn],
		},
		Watts:          r.Watts(),
		EnergyJoules:   r.EnergyJoules(),
		EDP:            r.EDP(),
		ED2P:           r.ED2P(),
		Deff:           r.Deff,
		MLP:            r.MLP,
		BranchMissRate: r.BranchMissRate,
	}
	if withMicroCPI {
		ar.MicroCPI = append([]float64(nil), r.MicroCPI...)
	}
	return ar
}

// RegisterProfile implements Evaluator: install an inline profile envelope,
// or synthesize and profile a built-in workload.
func (e *Engine) RegisterProfile(ctx context.Context, req *api.RegisterProfileRequest) (*api.RegisterProfileResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var p *Profile
	if len(req.Profile) > 0 {
		p = &Profile{}
		if err := json.Unmarshal(req.Profile, p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	} else {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		p, err = NewProfiler(WithSeed(req.Seed)).Profile(req.Workload, req.Uops)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	name := req.Name
	if name == "" {
		name = p.Workload()
	}
	// Register wraps its own argument errors with ErrBadRequest; a store
	// write-through failure passes through unwrapped, so server-side I/O
	// trouble surfaces as 500, not as the caller's fault.
	if err := e.Register(name, p); err != nil {
		return nil, err
	}
	return &api.RegisterProfileResponse{
		SchemaVersion: api.SchemaVersion,
		Name:          name,
		Workload:      p.Workload(),
		Uops:          p.TotalUops(),
	}, nil
}

// Workloads implements Evaluator. Store-backed names are listed from the
// store's index metadata, so a catalog of hundreds of evicted profiles is
// enumerated without loading a single body.
func (e *Engine) Workloads(ctx context.Context) (*api.WorkloadsResponse, error) {
	e.mu.RLock()
	infos := make([]api.WorkloadInfo, 0, len(e.profiles))
	seen := make(map[string]bool, len(e.profiles))
	for name, p := range e.profiles {
		seen[name] = true
		infos = append(infos, api.WorkloadInfo{
			Name:         name,
			Workload:     p.Workload(),
			Uops:         p.TotalUops(),
			Instructions: p.TotalInstructions(),
			Entropy:      p.Entropy(),
			MicroTraces:  p.MicroTraces(),
		})
	}
	e.mu.RUnlock()
	if e.store != nil {
		for _, name := range e.store.Names() {
			if seen[name] {
				continue
			}
			si, ok := e.store.Info(name)
			if !ok {
				continue
			}
			infos = append(infos, api.WorkloadInfo{
				Name:         name,
				Workload:     si.Workload,
				Uops:         si.Uops,
				Instructions: si.Instructions,
				Entropy:      si.Entropy,
				MicroTraces:  si.MicroTraces,
			})
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return &api.WorkloadsResponse{SchemaVersion: api.SchemaVersion, Workloads: infos}, nil
}

// ProfileInfo implements Evaluator: the metadata of one registered profile,
// digest and size included. Store-backed names are answered from the index
// without loading the body; in-memory profiles compute the same canonical
// digest on the fly, so local and store-backed engines answer identically.
func (e *Engine) ProfileInfo(ctx context.Context, name string) (*api.ProfileInfoResponse, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: profile request has no name", ErrBadRequest)
	}
	e.mu.RLock()
	p := e.profiles[name]
	e.mu.RUnlock()
	if p != nil {
		data, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("mipp: profile %q: %w", name, err)
		}
		sum := sha256.Sum256(data)
		return &api.ProfileInfoResponse{
			SchemaVersion: api.SchemaVersion,
			Profile: api.ProfileInfo{
				Name:         name,
				Workload:     p.Workload(),
				Digest:       "sha256:" + hex.EncodeToString(sum[:]),
				SizeBytes:    int64(len(data)),
				Uops:         p.TotalUops(),
				Instructions: p.TotalInstructions(),
				Entropy:      p.Entropy(),
				MicroTraces:  p.MicroTraces(),
				Resident:     true,
			},
		}, nil
	}
	if e.store != nil {
		if si, ok := e.store.Info(name); ok {
			return &api.ProfileInfoResponse{
				SchemaVersion: api.SchemaVersion,
				Profile: api.ProfileInfo{
					Name:         name,
					Workload:     si.Workload,
					Digest:       si.Digest,
					SizeBytes:    si.SizeBytes,
					Uops:         si.Uops,
					Instructions: si.Instructions,
					Entropy:      si.Entropy,
					MicroTraces:  si.MicroTraces,
					Resident:     si.Resident,
				},
			}, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownWorkload, name, e.WorkloadNames())
}

// DeleteProfile implements Evaluator: drop a registered profile (and, when
// store-backed, its durable object) along with its cached predictors.
func (e *Engine) DeleteProfile(ctx context.Context, name string) (*api.DeleteProfileResponse, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: delete request has no name", ErrBadRequest)
	}
	ok, err := e.remove(name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownWorkload, name, e.WorkloadNames())
	}
	return &api.DeleteProfileResponse{SchemaVersion: api.SchemaVersion, Name: name, Deleted: true}, nil
}

// Predict implements Evaluator.
func (e *Engine) Predict(ctx context.Context, req *api.PredictRequest) (*api.PredictResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	cfg, err := req.Config.Resolve()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	pd, err := e.predictor(ctx, req.Workload, req.Options)
	if err != nil {
		return nil, err
	}
	resp := &api.PredictResponse{SchemaVersion: api.SchemaVersion}
	err = e.serve(ctx, []string{req.Workload}, []*Predictor{pd}, nil, req.Options, []*Config{cfg}, 1, req.MicroCPI,
		func(_ int, res *api.Result, err error) error {
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			resp.Result = res
			return nil
		})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// serve is the one evaluation loop under every Engine surface. It runs the
// workloads × configs cross product through sweepInto on one pool — pds[w]
// serves workloads[w], and a nil pds[w] fails its workload's items with
// pdErrs[w], the only pdErrs element read — and times the fan-out into
// mipp_engine_evaluate_seconds. It then offers every evaluated item to the
// fidelity sampler and hands each item to emit in row-major input order:
// its index w*len(configs)+c, its result DTO (nil on failure) and its item
// error. A cancelled ctx returns ctx.Err() before any item is emitted; an
// emit error stops the loop and is returned.
func (e *Engine) serve(ctx context.Context, workloads []string, pds []*Predictor, pdErrs []error,
	spec api.PredictorSpec, configs []*Config, workers int, microCPI bool,
	emit func(i int, res *api.Result, err error) error) error {
	if workers <= 0 {
		workers = e.workers
	}
	brs := make([]*BatchResult, len(pds))
	for w := range brs {
		brs[w] = getBatchResult()
	}
	defer func() {
		for _, br := range brs {
			putBatchResult(br)
		}
	}()
	t := obs.StartTimer()
	sweepInto(ctx, pds, configs, workers, brs)
	t.ObserveInto(e.metrics.evaluateSeconds)
	if err := ctx.Err(); err != nil {
		return err
	}
	for w, br := range brs {
		for ci, cfg := range configs {
			var res *api.Result
			var itemErr error
			switch {
			case pds[w] == nil:
				itemErr = pdErrs[w]
			case br.Err(ci) != nil:
				itemErr = br.Err(ci)
			case br.Ok(ci):
				res = br.apiResult(ci, microCPI)
				e.offerFidelity(workloads[w], spec, cfg)
			}
			if err := emit(w*len(configs)+ci, res, itemErr); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepOne serves one workload over configs: results in input order (nil
// where a configuration failed) and the failures as item errors.
func (e *Engine) sweepOne(ctx context.Context, workload string, configs []*Config, spec api.PredictorSpec, workers int) ([]*api.Result, []api.ItemError, error) {
	pd, err := e.predictor(ctx, workload, spec)
	if err != nil {
		return nil, nil, err
	}
	results := make([]*api.Result, len(configs))
	var itemErrs []api.ItemError
	err = e.serve(ctx, []string{workload}, []*Predictor{pd}, nil, spec, configs, workers, false,
		func(i int, res *api.Result, err error) error {
			results[i] = res
			if err != nil {
				name := ""
				if configs[i] != nil {
					name = configs[i].Name
				}
				itemErrs = append(itemErrs, api.ItemError{Index: i, Config: name, Error: err.Error()})
			}
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	return results, itemErrs, nil
}

// Sweep implements Evaluator.
func (e *Engine) Sweep(ctx context.Context, req *api.SweepRequest) (*api.SweepResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	configs, err := api.ExpandConfigs(req.Configs, req.Space)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	results, itemErrs, err := e.sweepOne(ctx, req.Workload, configs, req.Options, req.Workers)
	if err != nil {
		return nil, err
	}
	return &api.SweepResponse{
		SchemaVersion: api.SchemaVersion,
		Workload:      req.Workload,
		Results:       results,
		Errors:        itemErrs,
	}, nil
}

// Evaluate implements Evaluator: the full workloads × configs cross product
// on one worker pool, items in row-major order (all configs of the first
// workload, then the second, ...). Each pool task runs one workload's
// compiled batch kernel over a contiguous chunk of configurations, so the
// per-config hot path reuses scratch buffers and memo tables instead of
// re-deriving config-invariant state. Per-item failures — including unknown
// workloads — land in the item's Error field; only request-level problems
// (bad version, no configs, cancellation) fail the whole batch.
func (e *Engine) Evaluate(ctx context.Context, req *api.BatchRequest) (*api.BatchResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	configs, err := api.ExpandConfigs(req.Configs, req.Space)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	workers := req.Workers
	if workers <= 0 {
		workers = e.workers
	}

	// Compile (or fetch) every workload's predictor up front — on the
	// pool, so a cold multi-workload batch doesn't serialize its
	// compiles; duplicate workloads share one compile via the cache.
	pds := make([]*Predictor, len(req.Workloads))
	pdErrs := make([]error, len(req.Workloads))
	runPool(ctx, len(req.Workloads), workers, func(i int) {
		pds[i], pdErrs[i] = e.predictor(ctx, req.Workloads[i], req.Options)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	items := make([]api.BatchItem, len(req.Workloads)*len(configs))
	err = e.serve(ctx, req.Workloads, pds, pdErrs, req.Options, configs, workers, false,
		func(i int, res *api.Result, err error) error {
			item := &items[i]
			item.Workload = req.Workloads[i/len(configs)]
			if cfg := configs[i%len(configs)]; cfg != nil {
				item.Config = cfg.Name
			}
			item.Result = res
			if err != nil {
				item.Error = err.Error()
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return &api.BatchResponse{SchemaVersion: api.SchemaVersion, Items: items}, nil
}

// Pareto implements Evaluator.
func (e *Engine) Pareto(ctx context.Context, req *api.ParetoRequest) (*api.ParetoResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	configs, err := api.ExpandConfigs(req.Configs, req.Space)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	results, itemErrs, err := e.sweepOne(ctx, req.Workload, configs, req.Options, req.Workers)
	if err != nil {
		return nil, err
	}

	points := make([]dse.Point, 0, len(results))
	resp := &api.ParetoResponse{
		SchemaVersion: api.SchemaVersion,
		Workload:      req.Workload,
		Errors:        itemErrs,
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		p := dse.Point{Config: r.Config, Time: r.TimeSeconds, Power: r.Watts}
		points = append(points, p)
		resp.Points = append(resp.Points, apiPoint(p))
	}
	for _, p := range dse.ParetoFront(points) {
		resp.Front = append(resp.Front, apiPoint(p))
	}
	if req.CapWatts != nil {
		if best, ok := dse.BestUnderPowerCap(points, *req.CapWatts); ok {
			bp := apiPoint(best)
			resp.BestUnderCap = &bp
		}
	}
	if best, ok := dse.BestByED2P(points); ok {
		bp := apiPoint(best)
		resp.BestByED2P = &bp
	}
	return resp, nil
}

func apiPoint(p dse.Point) api.Point {
	return api.Point{Config: p.Config, TimeSeconds: p.Time, Watts: p.Power}
}

// Compile-time check: the in-process engine and the remote client stay
// interchangeable.
var _ Evaluator = (*Engine)(nil)
