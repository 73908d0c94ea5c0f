package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"mipp/internal/cache"
	"mipp/internal/config"
	"mipp/internal/memo"
	"mipp/internal/memory"
	"mipp/internal/mlp"
	"mipp/internal/perf"
	"mipp/internal/prefetch"
	"mipp/internal/profiler"
	"mipp/internal/stats"
	"mipp/internal/statstack"
	"mipp/internal/trace"
)

// Compiled is phase 1 of the model's compile → evaluate split: everything
// derivable from the profile, its entropy fits and the option set alone,
// computed once and queried by any number of configuration evaluations. Eagerly it holds the
// StatStack curve set, the per-micro-trace mixes and compiled MLP models,
// and the config-invariant MLP parameter template; lazily it memoizes the
// quantities that depend on only a slice of the configuration — the
// per-cache-geometry StatStack prediction (so sweeps that vary only
// frequency, width or ROB never touch StatStack again), the core column per
// (remainder, dispatch width, ROB), the memory stage's per-micro MicroMem
// column per memory configuration, per-micro miss-ratio lookups,
// dependence-chain interpolations, branch-resolution fixpoints and merged
// load-dependence histograms.
//
// A Compiled is safe for concurrent use. Evaluation results are
// byte-identical regardless of which configurations were evaluated before:
// every memoized function is deterministic in its key, so a cache hit
// returns exactly what a fresh computation would — and for the same reason
// every memo table is bounded (maxGeomEntries, maxCoreMicros, maxMemEntries,
// maxMemoEntries, maxRemainders): past the cap new keys are computed without being stored,
// trading speed for memory but never changing a result. A long-lived
// service fed adversarial client-chosen geometries therefore holds bounded
// state per (workload, option-set) kernel.
type Compiled struct {
	profile *profiler.Profile
	// fits maps a predictor name to its linear branch entropy →
	// misprediction rate fit (Figure 3.9); see missRateFor.
	fits map[string]func(float64) float64
	opts Options

	// micros is the evaluation unit list (the profile's micro-traces, or
	// one combined pseudo-trace under Options.Combined), with their mixes
	// and compiled MLP models aligned by index.
	micros     []*profiler.Micro
	microMixes [][trace.NumClasses]float64
	mcs        []*mlp.Compiled

	curves *statstack.CurveSet
	// prm is the config-invariant part of the MLP parameter set (load
	// fraction and mode); memColumn fills in the rest from a memKey.
	prm mlp.Params
	// mix is the profile-level uop-class mix consumed by the activity
	// factors.
	mix [trace.NumClasses]float64

	geoms *memo.Table[geomKey, *geomEntry]
	// remGeoms locates a geometry entry by interned remainder and cache
	// sizes: a 24-byte key instead of geomKey's four cache.Configs, whose
	// name strings dominate the hash. Its entries point into geoms.
	remGeoms *memo.Table[remGeomKey, *geomEntry]
	// cores maps a coreKey to its core column: one lookup per evaluated
	// configuration whose width, ROB or remainder changed.
	cores *memo.Table[coreKey, *coreCol]
	// rems is the interned remainder list, append-only and read without a
	// lock; remMu serializes the appends. coreOverflows counts the core
	// columns computed for remainders past maxRemainders.
	rems          atomic.Pointer[[]*remEntry]
	remMu         sync.Mutex
	coreOverflows atomic.Uint64
	// mems maps a memory configuration to its per-micro MicroMem column:
	// one lookup per evaluated configuration, shared by every kernel.
	mems     *memo.Table[memKey, []mlp.MicroMem]
	microMR  *memo.Table[microLinesKey, float64]
	chains   *memo.Table[microROBKey, [3]float64]
	branches *memo.Table[branchKey, [2]float64]
	// loadDeps is keyed by profiled-ROB index, so its key space is the
	// profile's handful of ROB sizes and the bound never binds.
	loadDeps *memo.Table[int, *stats.Histogram]

	// batches pools warm evaluation kernels — scratch buffers and the DVFS
	// fast-path state — for EvaluateRangeInto.
	batches sync.Pool
}

// Memo-table bounds: real sweeps stay far below these (the stock 243-point
// space needs 9 geometries); they exist so a daemon serving arbitrary
// client-supplied configurations cannot be grown without limit. Overflowing
// keys are recomputed per evaluation instead of cached.
const (
	// maxGeomEntries bounds the per-geometry StatStack predictions — the
	// heaviest entries (three LevelStats plus derived rates each).
	maxGeomEntries = 256
	// maxCoreMicros bounds the core table by micro-traces × columns: it
	// holds at most maxCoreMicros/len(micros) columns, 16 bytes per
	// micro-trace each, so at most 4 MiB of them whatever the profile's
	// micro-trace count. The wide search space needs 96 columns and Table
	// 6.3 needs 9.
	maxCoreMicros = 1 << 18
	// maxRemainders bounds the interned remainders. Grid and search spaces
	// vary the remainder only through the port map, one per width class;
	// a configuration past the bound computes its core column without
	// storing it.
	maxRemainders = 16
	// maxMemEntries bounds the memory-stage columns (one MicroMem per
	// micro-trace each). The 122,880-point wide search space has 2,560
	// memory keys and Table 6.3 has 27.
	maxMemEntries = 1 << 14
	// maxMemoEntries bounds each of the scalar memo tables (miss ratios,
	// chain interpolations, branch-resolution fixpoints).
	maxMemoEntries = 1 << 16
)

// geomKey identifies a cache geometry — the only part of a configuration
// the StatStack prediction depends on.
type geomKey struct {
	l1d, l2, l3, l1i cache.Config
}

// geomEntry is the memoized per-geometry state: the StatStack prediction,
// the store-miss-per-uop rate the bus-contention term consumes, each
// micro-trace's geometry terms and the I-cache component summed over them
// in micro order.
type geomEntry struct {
	pred            *statstack.Prediction
	storeMissPerUop float64
	micros          []geomMicro
	icacheSum       float64
}

// geomMicro is one micro-trace's share of a geometry entry: its L2 and LLC
// load miss ratios, clamped so that no level misses more than the one
// above it, the predicted LLC load misses and the I-cache component.
type geomMicro struct {
	mrL2, mrLLC, misses, icache float64
}

// remGeomKey locates a geometry entry: an interned remainder carries L1D,
// L1I and the L2 and L3 shapes, so with the L2 and L3 sizes it determines
// the geomKey.
type remGeomKey struct {
	rid              int
	l2Bytes, l3Bytes int64
}

// coreKey selects a core column: an interned remainder, the dispatch width
// and the ROB size.
type coreKey struct {
	rid, width, rob int
}

// coreCol is the core stage of one coreKey: everything the model derives
// from the remainder, width and ROB alone. It holds each micro-trace's
// effective dispatch rate and its base plus branch component, their sums
// over the micro-traces in micro order (base, branch, and Deff weighted by
// length), the limiter counts, the branch miss rate, and the §4.8
// load-dependence fraction f1 at the ROB size.
type coreCol struct {
	micros                      []coreMicro
	baseSum, branchSum, deffSum float64
	limiter                     [4]float64
	missRate, f1                float64
}

// coreMicro is one micro-trace's share of a core column. baseBranch is
// base + branch, the first addition of CPIStack.Total.
type coreMicro struct {
	deff, baseBranch float64
}

// remEntry is one interned remainder: the key and a template
// configuration — the first one seen with this remainder, its port map
// deep-copied — that the core columns are computed from.
type remEntry struct {
	rem remainder
	cfg config.Config
}

// memKey carries every input the memory stage reads: the window, the MSHR
// count, the DRAM latency in cycles (the clock enters only through it), the
// LLC line count, the prefetcher and the branch miss rate, from which each
// micro-trace's misprediction distance follows. The load fraction and MLP
// mode, the rest of mlp.Params, are fixed per Compiled.
type memKey struct {
	rob, mshrs int
	latCycles  int
	llcLines   int64
	prefetcher prefetch.Config
	missRate   float64
}

type microLinesKey struct {
	micro int
	lines float64
}

type microROBKey struct {
	micro, rob int
}

// branchKey carries every input the branch-resolution fixpoint reads: the
// micro-trace (its length and chain profile), the window and width, the
// average latency and the misprediction count (always positive).
type branchKey struct {
	micro      int
	rob, width int
	lat        float64
	mispred    float64
}

// Compile runs phase 1 for one (profile, option-set) pair. fits maps a
// predictor name to its linear branch entropy → misprediction rate fit
// (Figure 3.9); it may be nil, and a predictor without a fit uses the
// asymptotic missrate ≈ entropy/2 relation.
func Compile(p *profiler.Profile, fits map[string]func(float64) float64, opts Options) *Compiled {
	micros := p.Micros
	if opts.Combined {
		micros = []*profiler.Micro{combineMicros(p)}
	}
	curves := statstack.Compile(p)
	c := &Compiled{
		profile:    p,
		fits:       fits,
		opts:       opts,
		micros:     micros,
		microMixes: make([][trace.NumClasses]float64, len(micros)),
		mcs:        make([]*mlp.Compiled, len(micros)),
		curves:     curves,
		prm:        mlp.Params{LoadFrac: p.LoadFrac(), Mode: opts.MLPMode},
		mix:        p.Mix(),
	}
	c.geoms = memo.New(maxGeomEntries, c.predictGeometry)
	c.remGeoms = memo.New(maxGeomEntries, func(k remGeomKey) *geomEntry {
		cfg := &(*c.rems.Load())[k.rid].cfg
		l2, l3 := cfg.L2, cfg.L3
		l2.SizeBytes, l3.SizeBytes = k.l2Bytes, k.l3Bytes
		return c.geoms.Get(geomKey{cfg.L1D, l2, l3, cfg.L1I})
	})
	c.cores = memo.New(max(1, maxCoreMicros/max(1, len(micros))), c.coreColumn)
	c.mems = memo.New(maxMemEntries, c.memColumn)
	c.microMR = memo.New(maxMemoEntries, func(k microLinesKey) float64 {
		return statstack.MissRatioForMicro(curves.Curve, micros[k.micro], k.lines)
	})
	c.chains = memo.New(maxMemoEntries, func(k microROBKey) [3]float64 {
		ap, abp, cp := micros[k.micro].Chains.At(k.rob)
		return [3]float64{ap, abp, cp}
	})
	c.branches = memo.New(maxMemoEntries, c.branchFixpoint)
	c.loadDeps = memo.New(maxMemoEntries, p.LoadDepHistAt)
	for i, micro := range micros {
		c.microMixes[i] = micro.Mix()
		c.mcs[i] = mlp.Compile(p, micro, curves.Curve)
	}
	c.batches.New = func() any { return &Batch{c: c} }
	return c
}

// Profile returns the profile c was compiled from.
func (c *Compiled) Profile() *profiler.Profile { return c.profile }

// missRateFor returns the predicted branch misprediction rate for a
// predictor from the profile's linear branch entropy.
func (c *Compiled) missRateFor(predictor string) float64 {
	if f, ok := c.fits[predictor]; ok {
		return clamp01(f(c.profile.Entropy))
	}
	// Asymptotic fallback: E(p)=2·min(p,1-p) ⇒ missrate ≈ E/2 for a
	// predictor that has learned the pattern.
	return clamp01(c.profile.Entropy / 2)
}

// CompiledStats counts the work the compile-phase memo tables computed.
// Under concurrent evaluation two goroutines may race to fill the same
// entry, so each count is an upper bound on distinct keys; single-goroutine
// use counts exactly.
type CompiledStats struct {
	// StatStackPredicts counts the per-geometry StatStack predictions.
	StatStackPredicts uint64
	// MissRatioComputes counts per-micro miss-ratio queries against the
	// reuse curve.
	MissRatioComputes uint64
	// CoreColumns counts core columns computed: one per coreKey stored,
	// plus one per evaluation of a configuration whose remainder is past
	// the interning bound.
	CoreColumns uint64
	// MemColumns counts memory-stage columns computed, one per memKey.
	MemColumns uint64
	// MissMarkBuilds and DepthBuilds aggregate the per-micro stride-MLP
	// caches: miss-mark sets (one per LLC line count) and depth columns
	// (one per profiled-ROB index) computed.
	MissMarkBuilds uint64
	DepthBuilds    uint64
}

// Stats snapshots the memo-table counters.
func (c *Compiled) Stats() CompiledStats {
	s := CompiledStats{
		StatStackPredicts: c.geoms.Computes(),
		MissRatioComputes: c.microMR.Computes(),
		CoreColumns:       c.cores.Computes() + c.coreOverflows.Load(),
		MemColumns:        c.mems.Computes(),
	}
	for _, mc := range c.mcs {
		mm, d := mc.Stats()
		s.MissMarkBuilds += mm
		s.DepthBuilds += d
	}
	return s
}

// predictGeometry runs StatStack for one cache geometry and derives each
// micro-trace's geometry terms from it.
func (c *Compiled) predictGeometry(k geomKey) *geomEntry {
	e := &geomEntry{
		pred:   c.curves.Predict([]cache.Config{k.l1d, k.l2, k.l3}, k.l1i),
		micros: make([]geomMicro, len(c.micros)),
	}
	// Global store miss ratio for bus contention (Eq 4.6).
	llcStats := e.pred.Levels[len(e.pred.Levels)-1]
	if p := c.profile; p.TotalUops > 0 {
		e.storeMissPerUop = llcStats.StoreMisses / float64(p.TotalUops)
	}
	l1, l2, llc := float64(k.l1d.Lines()), float64(k.l2.Lines()), float64(k.l3.Lines())
	for mi, micro := range c.micros {
		if micro.Len == 0 {
			continue // a zero-length micro-trace contributes nothing
		}
		// Per-micro cache behaviour: L1/L2/LLC load miss ratios.
		mrL1, mrL2, mrLLC := c.missRatio(mi, l1), c.missRatio(mi, l2), c.missRatio(mi, llc)
		if mrL2 > mrL1 {
			mrL2 = mrL1
		}
		if mrLLC > mrL2 {
			mrLLC = mrL2
		}
		gm := &e.micros[mi]
		gm.mrL2, gm.mrLLC = mrL2, mrLLC
		// The DRAM component itself is frequency-dependent (the memory
		// column and dramPenalty); what is invariant is the predicted miss
		// count.
		gm.misses = mrLLC * float64(micro.LoadCount)
		// I-cache component: misses resolved from L2.
		if e.pred.ICacheMPKI > 0 {
			icMisses := e.pred.ICacheMPKI / 1000 * float64(micro.Instrs)
			gm.icache = icMisses * float64(k.l2.LatencyCycles)
		}
		e.icacheSum += gm.icache
	}
	return e
}

// intern returns the index of rem with cfg's port map in the remainder
// list, adding it when there is room, or -1 past maxRemainders. The list
// is short and scanned only when a kernel's remainder changes.
func (c *Compiled) intern(rem *remainder, cfg *config.Config) int {
	if i := findRemainder(c.rems.Load(), rem, cfg); i >= 0 {
		return i
	}
	c.remMu.Lock()
	defer c.remMu.Unlock()
	list := c.rems.Load()
	if i := findRemainder(list, rem, cfg); i >= 0 {
		return i
	}
	var old []*remEntry
	if list != nil {
		old = *list
	}
	if len(old) >= maxRemainders {
		return -1
	}
	e := &remEntry{rem: *rem, cfg: *cfg}
	e.cfg.Name = ""
	e.cfg.Ports = slices.Clone(cfg.Ports)
	for pi, p := range e.cfg.Ports {
		e.cfg.Ports[pi] = slices.Clone(p)
	}
	grown := append(old[:len(old):len(old)], e)
	c.rems.Store(&grown)
	return len(old)
}

// findRemainder returns the index of rem with cfg's port map in list, or
// -1.
//
//mipp:hotpath
func findRemainder(list *[]*remEntry, rem *remainder, cfg *config.Config) int {
	if list == nil {
		return -1
	}
	for i, e := range *list {
		if e.rem == *rem && slices.EqualFunc(e.cfg.Ports, cfg.Ports, slices.Equal[config.Port]) {
			return i
		}
	}
	return -1
}

// coreColumn computes the stored core column of one key from its interned
// remainder's template.
func (c *Compiled) coreColumn(k coreKey) *coreCol {
	cfg := (*c.rems.Load())[k.rid].cfg
	cfg.DispatchWidth, cfg.ROB = k.width, k.rob
	col := new(coreCol)
	c.fillCore(col, &cfg, new(scratch))
	return col
}

// fillCore computes cfg's core column into col, reusing its capacity: per
// micro-trace, the dispatch rate Deff (Eq 3.10) from the average latency,
// the critical path at the ROB size and the port and unit bounds, then the
// base and branch components of Equation 3.1. It reads only the remainder,
// the dispatch width and the ROB of cfg.
func (c *Compiled) fillCore(col *coreCol, cfg *config.Config, scr *scratch) {
	col.micros = grow(col.micros, len(c.micros))
	col.baseSum, col.branchSum, col.deffSum = 0, 0, 0
	col.limiter = [4]float64{}
	col.missRate = c.opts.BranchMissRate
	if col.missRate < 0 {
		col.missRate = c.missRateFor(cfg.Predictor)
	}
	col.f1 = 0
	if !c.opts.NoLLCChain {
		// The §4.8 fraction of loads that depend on one earlier load.
		if col.f1 = c.loadDepHist(cfg.ROB).Fraction(1); col.f1 <= 0 {
			col.f1 = 1
		}
	}
	l1 := float64(cfg.L1D.Lines())
	for mi, micro := range c.micros {
		if micro.Len == 0 {
			col.limiter[0]++ // contributes nothing, counted as width-limited
			continue
		}
		n := float64(micro.Len)
		mix := c.microMixes[mi]
		// Average instruction latency including short (L1/L2-hit) loads.
		lat := averageLatency(mix, cfg, c.missRatio(mi, l1))
		// Effective dispatch rate (Eq 3.10) with the per-ROB critical path.
		_, _, cp := c.chainAt(mi, cfg.ROB)
		var portD, unitD float64
		if c.opts.DispatchModel == DispatchFull {
			portD, unitD = effectiveDispatchLimits(mix, cfg, scr)
		}
		deff, limiter := effectiveDispatchFrom(cfg, lat, cp, c.opts.DispatchModel, portD, unitD)

		// Base component.
		var base float64
		if c.opts.DispatchModel == DispatchInstructions {
			base = float64(micro.Instrs) / float64(cfg.DispatchWidth)
		} else {
			base = n / deff
		}

		// Branch misprediction component: m_bpred × (c_res + c_fe). When
		// the backend, not the front-end, is the bottleneck (Deff < D), the
		// ROB backlog keeps the core busy while the front-end recovers;
		// only the part of the recovery that outlasts the backlog drain
		// costs cycles.
		var branch float64
		if mispred := float64(micro.Branches) * col.missRate; mispred > 0 {
			// The memoized leaky-bucket fixpoint gives the resolution time
			// and the ROB occupancy. The resolution overlaps with the
			// backend draining that backlog (occ uops at Deff); the
			// front-end refill does not.
			v := c.branches.Get(branchKey{micro: mi, rob: cfg.ROB, width: cfg.DispatchWidth, lat: lat, mispred: mispred})
			resolution := v[0] - v[1]/deff
			if resolution < 0 {
				resolution = 0
			}
			branch = mispred * (resolution + float64(cfg.FrontEndDepth))
		}

		col.micros[mi] = coreMicro{deff: deff, baseBranch: base + branch}
		col.baseSum += base
		col.branchSum += branch
		col.deffSum += deff * n
		col.limiter[limiter]++
	}
}

// missRatio returns the memoized load miss ratio of one micro-trace at a
// cache size.
//
//mipp:hotpath
func (c *Compiled) missRatio(mi int, lines float64) float64 {
	return c.microMR.Get(microLinesKey{mi, lines})
}

// chainAt returns the memoized logarithmic chain-profile interpolation (AP,
// ABP, CP) of one micro-trace at one window size. It is on the hot path
// twice: once per (micro, config) for the dependence limit, and once per
// iteration of the branch-resolution fixpoint.
//
//mipp:hotpath
func (c *Compiled) chainAt(mi, rob int) (ap, abp, cp float64) {
	v := c.chains.Get(microROBKey{mi, rob})
	return v[0], v[1], v[2]
}

// loadDepHist returns the memoized profile-level merged inter-load
// dependence histogram of the profiled ROB size the window quantizes to.
func (c *Compiled) loadDepHist(rob int) *stats.Histogram {
	return c.loadDeps.Get(max(c.profile.Opts.ROBIndexFor(rob), 0))
}

// scratch holds the reusable buffers of one evaluation kernel, so a batched
// sweep does not re-allocate the port-scheduling state for every
// (micro, config) pair. A scratch is owned by a single goroutine.
type scratch struct {
	activity []float64
	serving  []int
	tied     []int
	multi    []trace.Class
	// pre is each micro-trace's CPI before its DRAM component, written by
	// the combine loop and read by finish.
	pre []float64
	// core is the core column of a configuration whose remainder is past
	// the interning bound.
	core coreCol
}

// ensurePre sizes the per-micro-trace pre-DRAM buffer for one evaluation.
func (s *scratch) ensurePre(n int) []float64 {
	if cap(s.pre) < n {
		s.pre = make([]float64, n)
	}
	s.pre = s.pre[:n]
	return s.pre
}

// pooledCapLimit bounds the slice capacity a scratch may carry back into
// the kernel pool: one evaluation of a pathologically wide configuration
// (or a profile with an enormous micro-trace count) must not pin its
// buffers for the life of the pool. Oversized slices are dropped on Put and
// reallocated by the next evaluation that needs them; real configurations
// stay far below the limit, so the trim is free on the steady path.
const pooledCapLimit = 1 << 12

// trim drops oversized buffers before the scratch returns to the pool.
func (s *scratch) trim() {
	if cap(s.activity) > pooledCapLimit {
		s.activity = nil
	}
	if cap(s.serving) > pooledCapLimit {
		s.serving = nil
	}
	if cap(s.tied) > pooledCapLimit {
		s.tied = nil
	}
	if cap(s.multi) > pooledCapLimit {
		s.multi = nil
	}
	if cap(s.pre) > pooledCapLimit {
		s.pre = nil
	}
	if cap(s.core.micros) > pooledCapLimit {
		s.core.micros = nil
	}
}

// putBatch returns a kernel to c.batches, first trimming the scratch
// buffers a pathological configuration grew. Dropping the pre-DRAM buffer
// (and with it the unstored core column, which has the same length)
// invalidates the DVFS key they were computed for.
func (c *Compiled) putBatch(b *Batch) {
	b.scr.trim()
	if b.scr.pre == nil {
		b.keyValid = false
	}
	c.batches.Put(b)
}

// memColumn runs the MLP models of every micro-trace for one memory
// configuration, from the key alone; a zero-length micro-trace gets a zero
// MicroMem. The column is stored in c.mems and read by every kernel, so it
// is never written after this returns.
func (c *Compiled) memColumn(k memKey) []mlp.MicroMem {
	col := make([]mlp.MicroMem, len(c.micros))
	prm := c.prm
	prm.ROB = k.rob
	prm.MSHRs = k.mshrs
	prm.MemLatency = k.latCycles
	prm.LLCLines = float64(k.llcLines)
	prm.Prefetch = k.prefetcher
	for mi, micro := range c.micros {
		if micro.Len == 0 {
			continue
		}
		// A misprediction drains the window: the MLP models see the
		// micro-trace's mean distance between mispredictions.
		prm.MispredictEvery = 0
		if mispred := float64(micro.Branches) * k.missRate; mispred > 0 {
			prm.MispredictEvery = float64(micro.Len) / mispred
		}
		col[mi] = c.mcs[mi].Evaluate(prm)
	}
	return col
}

// finish combines the clock-invariant stage — the core column, the
// geometry entry and the pre-DRAM CPI of each micro-trace — with the
// per-clock MicroMem column into res: the only stage that runs on every
// configuration of a warm DVFS sweep. Each stack component is its
// per-micro terms summed in micro order and each MicroCPI adds DRAM last,
// as CPIStack.Add and Total would. res may be a reused row: every output
// field is (re)assigned, and MicroCPI is appended into its existing
// capacity.
//
//mipp:hotpath
func (c *Compiled) finish(cfg *config.Config, core *coreCol, ge *geomEntry, pre []float64, llcSum float64, mems []mlp.MicroMem, mem memory.Config, res *Result) {
	p := c.profile
	res.Config = cfg.Name
	res.Workload = p.Workload
	res.Cycles = 0
	res.Uops = float64(p.TotalUops)
	res.Instructions = float64(p.TotalInstrs)
	res.Activity = perf.Activity{}
	res.Deff = 0
	res.MLP = 0
	res.BranchMissRate = core.missRate
	res.LLCLoadMisses = 0
	res.DRAMStallPerMiss = 0
	res.MicroCPI = res.MicroCPI[:0]
	res.Limiter = core.limiter

	var totalUops, mlpSum, mlpW float64
	var missSum, dramStall, dramSum float64
	for mi := range pre {
		n := float64(c.micros[mi].Len)
		totalUops += n
		dram := 0.0
		if gm := &ge.micros[mi]; gm.misses > 0 {
			mm := &mems[mi]
			dram = c.dramPenalty(cfg, mem, n, core.micros[mi].deff, gm.misses, ge.storeMissPerUop, mm)
			mlpSum += mm.MLP * gm.misses
			mlpW += gm.misses
			missSum += gm.misses
			dramStall += dram
		}
		dramSum += dram
		res.MicroCPI = append(res.MicroCPI, (pre[mi]+dram)/n)
	}
	res.Stack = perf.CPIStack{Cycles: [perf.NumComponents]float64{
		perf.Base:       core.baseSum,
		perf.BranchComp: core.branchSum,
		perf.ICache:     ge.icacheSum,
		perf.LLCHit:     llcSum,
		perf.DRAM:       dramSum,
	}}
	if totalUops == 0 {
		return
	}
	// Scale the sampled prediction to the full stream.
	scale := float64(p.TotalUops) / totalUops
	res.Stack.Scale(scale)
	res.Cycles = res.Stack.Total()
	res.Deff = core.deffSum / totalUops
	if mlpW > 0 {
		res.MLP = mlpSum / mlpW
	} else {
		res.MLP = 1
	}
	res.LLCLoadMisses = missSum * scale
	if missSum > 0 {
		res.DRAMStallPerMiss = dramStall / missSum
	}
	c.fillActivity(res, ge.pred)
}

// dramPenalty is the DRAM component of Equation 3.1 for one micro-trace of
// n uops with a positive predicted miss count: m_LLC × (c_mem + c_bus)/MLP
// with prefetch, MSHR and bus corrections.
//
//mipp:hotpath
func (c *Compiled) dramPenalty(cfg *config.Config, mc memory.Config, n, deff, misses, storeMissPerUop float64, mem *mlp.MicroMem) float64 {
	cmem := float64(mc.LatencyCycles) + float64(cfg.L3.LatencyCycles)
	cbus := 0.0
	if !c.opts.NoBusQueue {
		mlpPrime := mlp.RescaleForStores(mem.MLP, misses, storeMissPerUop*n)
		cbus = mlp.BusLatency(mlpPrime, mc.BusCyclesPerLine)
	}
	// Prefetch coverage (Eq 4.13): timely misses cost nothing; partial
	// ones cost the residual latency.
	demand := misses * (1 - mem.PrefetchTimely - mem.PrefetchPartial)
	partial := misses * mem.PrefetchPartial
	penalty := demand * (cmem + cbus)
	if partial > 0 {
		residual := cmem - mem.PartialSpacing/deff
		if residual < 0 {
			residual = 0
		}
		penalty += partial * residual
	}
	penalty /= mem.MLP
	// The stall starts only when the load reaches the ROB head and the ROB
	// has filled behind it (§2.5.3); dispatch proceeds at D during the
	// fill, so ROB/D cycles per stalling window overlap with the base
	// component and are subtracted, mirroring the ROB-fill subtraction
	// Equation 4.11 applies to chained LLC hits.
	windows := n / float64(cfg.ROB)
	missWindows := math.Min(windows, misses)
	if missWindows > 0 {
		perWindow := penalty / missWindows
		hidden := math.Min(float64(cfg.ROB)/float64(cfg.DispatchWidth), perWindow)
		penalty -= hidden * missWindows
	}
	if penalty < 0 {
		penalty = 0
	}
	return penalty
}

// branchFixpoint runs Algorithm 3.2: it tracks how full the ROB is when the
// mispredicted branch finally executes and prices the resolution as
// lat × ABP at that occupancy.
func (c *Compiled) branchFixpoint(k branchKey) [2]float64 {
	ni := float64(c.micros[k.micro].Len) / k.mispred // uops between mispredictions
	d := float64(k.width)
	rob := float64(k.rob)
	robi := 0.0
	for iter := 0; ni > d && iter < 4096; iter++ {
		if robi+d <= rob {
			ni -= d
			robi += d
		} else {
			ni -= rob - robi
			robi = rob
		}
		// Independent instructions at the current occupancy.
		_, _, cpi := c.chainAt(k.micro, int(robi+0.5))
		iRob := robi
		if cpi > 0 {
			iRob = robi / (k.lat * cpi)
		}
		leave := math.Min(iRob, d)
		robi -= leave
		if robi < 0 {
			robi = 0
		}
	}
	occ := int(robi + 0.5)
	if occ < 1 {
		occ = 1
	}
	_, abpOcc, _ := c.chainAt(k.micro, occ)
	if abpOcc < 1 {
		abpOcc = 1
	}
	return [2]float64{k.lat * abpOcc, robi}
}

// llcChainPenalty implements Equations 4.7-4.12, with f1 the core column's
// load-dependence fraction at cfg.ROB.
//
//mipp:hotpath
func (c *Compiled) llcChainPenalty(mi int, cfg *config.Config, deff, mrL2, mrLLC, f1 float64) float64 {
	micro := c.micros[mi]
	n := float64(micro.Len)
	loadFrac := 0.0
	if micro.Len > 0 {
		loadFrac = float64(micro.LoadCount) / n
	}
	loadsPerROB := loadFrac * float64(cfg.ROB)
	if loadsPerROB <= 0 {
		return 0
	}
	// LLC hits: loads missing L2 but hitting L3.
	hitRate := mrL2 - mrLLC
	if hitRate <= 0 {
		return 0
	}
	hLLC := hitRate * loadsPerROB
	pload := f1 * loadsPerROB
	if pload < 1 {
		pload = 1
	}
	lop := loadsPerROB / pload
	lhcAvg := hLLC / pload                   // Eq 4.7
	lhcMax := math.Min(hLLC, lop)            // Eq 4.8
	lhcExp := lhcAvg + (lhcMax-lhcAvg)/pload // Eq 4.9
	if lhcExp < 0 {
		lhcExp = 0
	}
	pPrime := float64(cfg.L3.LatencyCycles) * lhcExp // Eq 4.10
	perWindow := pPrime - float64(cfg.ROB)/deff      // Eq 4.11
	if perWindow <= 0 {
		return 0
	}
	return perWindow * n / float64(cfg.ROB) // Eq 4.12
}

// fillActivity derives the predicted activity factors (Eq 3.16).
func (c *Compiled) fillActivity(res *Result, pred *statstack.Prediction) {
	p := c.profile
	a := &res.Activity
	a.Cycles = res.Cycles
	a.UopsDispatched = float64(p.TotalUops)
	a.UopsCommitted = float64(p.TotalUops)
	for cl := trace.Class(0); cl < trace.NumClasses; cl++ {
		a.PerClass[cl] = c.mix[cl] * float64(p.TotalUops)
	}
	a.BranchLookups = float64(p.Branches)
	a.L1IAccesses = float64(p.InstrFetch)
	a.L1IMisses = pred.ICacheMPKI / 1000 * float64(p.TotalInstrs)
	a.L1DAccesses = float64(p.MemAccesses)
	l1 := pred.Levels[0]
	l2 := pred.Levels[1]
	l3 := pred.Levels[2]
	a.L1DMisses = l1.Misses
	a.L2Accesses = l1.Misses
	a.L2Misses = l2.Misses
	a.L3Accesses = l2.Misses
	a.L3Misses = l3.Misses
	a.DRAMAccesses = l3.Misses
}
