package core

import (
	"math"
	"sync"

	"mipp/internal/cache"
	"mipp/internal/config"
	"mipp/internal/memo"
	"mipp/internal/mlp"
	"mipp/internal/perf"
	"mipp/internal/profiler"
	"mipp/internal/stats"
	"mipp/internal/statstack"
	"mipp/internal/trace"
)

// Compiled is phase 1 of the model's compile → evaluate split: everything
// derivable from the (profile, option-set) pair alone, computed once and
// queried by any number of configuration evaluations. Eagerly it holds the
// StatStack curve set, the per-micro-trace mixes and compiled MLP models,
// and the config-invariant MLP parameter template; lazily it memoizes the
// quantities that depend on only a slice of the configuration — the
// per-cache-geometry StatStack prediction (so sweeps that vary only
// frequency, width or ROB never touch StatStack again), per-micro
// miss-ratio lookups, dependence-chain interpolations, branch-resolution
// fixpoints and merged load-dependence histograms.
//
// A Compiled is safe for concurrent use. Evaluation results are
// byte-identical regardless of which configurations were evaluated before:
// every memoized function is deterministic in its key, so a cache hit
// returns exactly what a fresh computation would — and for the same reason
// every memo table is bounded (maxGeomEntries, maxMemoEntries): past the
// cap new keys are computed without being stored, trading speed for memory
// but never changing a result. A long-lived service fed adversarial
// client-chosen geometries therefore holds bounded state per
// (workload, option-set) kernel.
type Compiled struct {
	model *Model
	opts  Options

	// micros is the evaluation unit list (the profile's micro-traces, or
	// one combined pseudo-trace under Options.Combined), with their mixes
	// and compiled MLP models aligned by index.
	micros     []*profiler.Micro
	microMixes [][trace.NumClasses]float64
	mcs        []*mlp.Compiled

	curves *statstack.CurveSet
	// prm is the config-invariant part of the MLP parameter set; evaluate
	// fills in the per-config fields.
	prm mlp.Params
	// mix is the profile-level uop-class mix consumed by the activity
	// factors.
	mix [trace.NumClasses]float64

	geoms    *memo.Table[geomKey, *geomEntry]
	microMR  *memo.Table[microLinesKey, float64]
	chains   *memo.Table[microROBKey, [3]float64]
	branches *memo.Table[branchKey, [2]float64]
	// loadDeps is keyed by profiled-ROB index, so its key space is the
	// profile's handful of ROB sizes and the bound never binds.
	loadDeps *memo.Table[int, *stats.Histogram]

	// batches pools warm evaluation kernels — scratch buffers, lookup
	// caches and the DVFS fast-path state — for every evaluation entry
	// point, so repeated calls reuse invariants instead of rebuilding them.
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
	// maxMemoEntries bounds each of the scalar memo tables (miss ratios,
	// chain interpolations, branch-resolution fixpoints).
	maxMemoEntries = 1 << 16
)

// geomKey identifies a cache geometry — the only part of a configuration
// the StatStack prediction depends on.
type geomKey struct {
	l1d, l2, l3, l1i cache.Config
}

// geomEntry is the memoized per-geometry state: the StatStack prediction
// and the store-miss-per-uop rate the bus-contention term consumes.
type geomEntry struct {
	pred            *statstack.Prediction
	storeMissPerUop float64
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

// newCompiled runs phase 1 for one (profile, option-set) pair.
func newCompiled(m *Model, opts Options) *Compiled {
	p := m.Profile
	micros := p.Micros
	if opts.Combined {
		micros = []*profiler.Micro{combineMicros(p)}
	}
	curves := statstack.Compile(p)
	c := &Compiled{
		model:      m,
		opts:       opts,
		micros:     micros,
		microMixes: make([][trace.NumClasses]float64, len(micros)),
		mcs:        make([]*mlp.Compiled, len(micros)),
		curves:     curves,
		prm:        mlp.Params{LoadFrac: p.LoadFrac(), Mode: opts.MLPMode},
		mix:        p.Mix(),
	}
	c.geoms = memo.New(maxGeomEntries, c.predictGeometry)
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
	// MissMarkBuilds, DepthBuilds and MLPComputes aggregate the per-micro
	// MLP caches: stride-MLP miss-mark sets (one per LLC line count) and
	// depth columns (one per profiled-ROB index) computed, and full
	// MLP-model evaluations.
	MissMarkBuilds uint64
	DepthBuilds    uint64
	MLPComputes    uint64
}

// Stats snapshots the memo-table counters.
func (c *Compiled) Stats() CompiledStats {
	s := CompiledStats{
		StatStackPredicts: c.geoms.Computes(),
		MissRatioComputes: c.microMR.Computes(),
	}
	for _, mc := range c.mcs {
		mm, d, e := mc.Stats()
		s.MissMarkBuilds += mm
		s.DepthBuilds += d
		s.MLPComputes += e
	}
	return s
}

// predictGeometry runs StatStack for one cache geometry.
func (c *Compiled) predictGeometry(k geomKey) *geomEntry {
	e := &geomEntry{pred: c.curves.Predict([]cache.Config{k.l1d, k.l2, k.l3}, k.l1i)}
	// Global store miss ratio for bus contention (Eq 4.6).
	llcStats := e.pred.Levels[len(e.pred.Levels)-1]
	if p := c.model.Profile; p.TotalUops > 0 {
		e.storeMissPerUop = llcStats.StoreMisses / float64(p.TotalUops)
	}
	return e
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
	return c.loadDeps.Get(max(c.model.Profile.Opts.ROBIndexFor(rob), 0))
}

// scratch holds the reusable buffers of one evaluation kernel, so a batched
// sweep does not re-allocate the port-scheduling state for every
// (micro, config) pair. A scratch is owned by a single goroutine.
type scratch struct {
	activity []float64
	serving  []int
	tied     []int
	multi    []trace.Class
	invs     []microInv
}

// ensureMicros sizes the per-micro-trace invariant buffer for one
// evaluation.
func (s *scratch) ensureMicros(n int) {
	if cap(s.invs) < n {
		s.invs = make([]microInv, n)
	} else {
		s.invs = s.invs[:n]
	}
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
	if cap(s.invs) > pooledCapLimit {
		s.invs = nil
	}
}

// Evaluate predicts performance for one configuration: a batch of one on a
// pooled kernel, so single and batched evaluation run the same stages with
// the same caches. Safe for concurrent use.
//
//mipp:hotpath
func (c *Compiled) Evaluate(cfg *config.Config) *Result {
	b := c.batches.Get().(*Batch)
	res := &Result{MicroCPI: make([]float64, 0, len(c.micros))}
	b.evaluateInto(cfg, res)
	c.putBatch(b)
	return res
}

// putBatch returns a kernel to c.batches, first trimming the scratch
// buffers a pathological configuration grew. Dropping the per-micro
// invariants invalidates the DVFS key they were computed for.
func (c *Compiled) putBatch(b *Batch) {
	b.scr.trim()
	if b.scr.invs == nil {
		b.keyValid = false
	}
	c.batches.Put(b)
}

// microInv is the clock-invariant share of one micro-trace's evaluation:
// every CPI component except DRAM, the effective dispatch rate, the
// predicted LLC load misses, and the MLP parameter set minus its two
// frequency-derived fields (MemLatency, BusPerLine — patched in by
// computeMems). The DVFS fast path computes these once per distinct
// non-clock configuration and re-runs only computeMems + finish per clock.
type microInv struct {
	stack   perf.CPIStack
	deff    float64
	misses  float64
	limiter int
	skip    bool // zero-length micro-trace: contributes nothing
	prm     mlp.Params
}

// computeMems runs the frequency-dependent MLP model query for every
// micro-trace: the invariant parameter set patched with the DRAM latency
// and bus occupancy the configuration's clock implies, plus the prefetcher
// setting. Prefetch is patched here, not baked into the invariants, because
// no clock-invariant stage reads it — which lets the batch kernel's fast
// path treat the prefetcher like a second clock axis and reuse invariants
// across a prefetcher toggle.
//
//mipp:hotpath
func (c *Compiled) computeMems(cfg *config.Config, invs []microInv, mems []mlp.MicroMem) {
	mem := cfg.MemConfig()
	for mi := range invs {
		if invs[mi].skip {
			mems[mi] = mlp.MicroMem{}
			continue
		}
		prm := invs[mi].prm
		prm.MemLatency = mem.LatencyCycles
		prm.BusPerLine = mem.BusCyclesPerLine
		prm.Prefetch = cfg.Prefetcher
		mems[mi] = c.mcs[mi].Evaluate(prm)
	}
}

// finish combines the per-micro invariants with their per-clock MicroMem
// column into res — the only stage that runs on every configuration of a
// warm DVFS sweep. res may be a reused row: every output field is
// (re)assigned, and MicroCPI is appended into its existing capacity.
//
//mipp:hotpath
func (c *Compiled) finish(cfg *config.Config, ge *geomEntry, missRate float64, invs []microInv, mems []mlp.MicroMem, res *Result) {
	p := c.model.Profile
	mem := cfg.MemConfig()
	res.Config = cfg.Name
	res.Workload = p.Workload
	res.Cycles = 0
	res.Uops = float64(p.TotalUops)
	res.Instructions = float64(p.TotalInstrs)
	res.Stack = perf.CPIStack{}
	res.Activity = perf.Activity{}
	res.Deff = 0
	res.MLP = 0
	res.BranchMissRate = missRate
	res.LLCLoadMisses = 0
	res.DRAMStallPerMiss = 0
	res.MicroCPI = res.MicroCPI[:0]
	res.Limiter = [4]float64{}

	var totalUops float64
	var deffSum, mlpSum, mlpW float64
	var missSum, dramStall float64
	for mi := range invs {
		ev := c.microFinish(mi, cfg, ge, &invs[mi], mems[mi], mem.LatencyCycles, mem.BusCyclesPerLine)
		res.Stack.Add(&ev.stack)
		n := float64(c.micros[mi].Len)
		totalUops += n
		deffSum += ev.deff * n
		if ev.misses > 0 {
			mlpSum += ev.mlp * ev.misses
			mlpW += ev.misses
			missSum += ev.misses
			dramStall += ev.stack.Cycles[perf.DRAM]
		}
		res.MicroCPI = append(res.MicroCPI, ev.stack.Total()/n)
		res.Limiter[ev.limiter]++
	}
	if totalUops == 0 {
		return
	}
	// Scale the sampled prediction to the full stream.
	scale := float64(p.TotalUops) / totalUops
	res.Stack.Scale(scale)
	res.Cycles = res.Stack.Total()
	res.Deff = deffSum / totalUops
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

// microInvariant applies the clock-invariant part of Equation 3.1 to one
// micro-trace: miss ratios, dispatch rate, base, branch, I-cache and
// chained-LLC-hit components, and the MLP parameter set short of the
// frequency-derived fields. The memoized or mix-derived per-micro inputs —
// the raw L1/L2/LLC load miss ratios, the critical path CP at cfg.ROB, and
// the port/unit dispatch bounds — are computed by the caller,
// which serves them from the batch kernel's lock-free local caches. The
// result is written into out (a reused scr.invs slot), and prm's per-micro
// fields (MispredictEvery, DispatchRate) are unconditionally reassigned, so
// one caller-owned Params template serves every micro.
//
//mipp:hotpath
func (c *Compiled) microInvariant(mi int, cfg *config.Config, ge *geomEntry, prm *mlp.Params, missRate float64, mrL1, mrL2, mrLLC, cp, portD, unitD float64, out *microInv) {
	micro := c.micros[mi]
	n := float64(micro.Len)
	*out = microInv{}
	if n == 0 {
		out.skip = true
		return
	}
	inv := out
	mix := c.microMixes[mi]

	// Per-micro cache behaviour: L1/L2/LLC load miss ratios.
	if mrL2 > mrL1 {
		mrL2 = mrL1
	}
	if mrLLC > mrL2 {
		mrLLC = mrL2
	}

	// Average instruction latency including short (L1/L2-hit) loads.
	lat := averageLatency(mix, cfg, mrL1)

	// Effective dispatch rate (Eq 3.10) with the per-ROB critical path.
	deff, limiter := effectiveDispatchFrom(cfg, lat, cp, c.opts.DispatchModel, portD, unitD)
	inv.deff = deff
	inv.limiter = limiter

	// Base component.
	if c.opts.DispatchModel == DispatchInstructions {
		inv.stack.Cycles[perf.Base] = float64(micro.Instrs) / float64(cfg.DispatchWidth)
	} else {
		inv.stack.Cycles[perf.Base] = n / deff
	}

	// Branch misprediction component: m_bpred × (c_res + c_fe). When the
	// backend, not the front-end, is the bottleneck (Deff < D), the ROB
	// backlog keeps the core busy while the front-end recovers; only the
	// part of the recovery that outlasts the backlog drain costs cycles.
	branches := float64(micro.Branches)
	mispred := branches * missRate
	if mispred > 0 {
		cres, occ := c.branchResolution(mi, cfg, lat, mispred)
		// The resolution overlaps with the backend draining the ROB
		// backlog (occ uops at Deff); the front-end refill does not.
		drain := occ / deff
		resolution := cres - drain
		if resolution < 0 {
			resolution = 0
		}
		inv.stack.Cycles[perf.BranchComp] = mispred * (resolution + float64(cfg.FrontEndDepth))
		prm.MispredictEvery = n / mispred
	} else {
		prm.MispredictEvery = 0
	}

	// I-cache component: misses resolved from L2.
	if ge.pred.ICacheMPKI > 0 {
		icMisses := ge.pred.ICacheMPKI / 1000 * float64(micro.Instrs)
		inv.stack.Cycles[perf.ICache] = icMisses * float64(cfg.L2.LatencyCycles)
	}

	// The memory component itself is frequency-dependent (computeMems /
	// microFinish); what is invariant is the fully-specified parameter
	// set short of MemLatency/BusPerLine, and the predicted miss count.
	prm.DispatchRate = deff
	inv.misses = mrLLC * float64(micro.LoadCount)

	// Chained LLC hits (§4.8, Eq 4.7-4.12).
	if !c.opts.NoLLCChain {
		inv.stack.Cycles[perf.LLCHit] = c.llcChainPenalty(mi, cfg, deff, mrL2, mrLLC)
	}
	inv.prm = *prm
}

// microFinish completes Equation 3.1 for one micro-trace: the DRAM
// component — m_LLC × (c_mem + c_bus)/MLP with prefetch, MSHR and bus
// corrections — on top of the invariant components.
//
//mipp:hotpath
func (c *Compiled) microFinish(mi int, cfg *config.Config, ge *geomEntry, inv *microInv, mem mlp.MicroMem, latCycles, busPerLine int) microEval {
	if inv.skip {
		return microEval{}
	}
	ev := microEval{stack: inv.stack, deff: inv.deff, mlp: mem.MLP, misses: inv.misses, limiter: inv.limiter}
	if inv.misses > 0 {
		n := float64(c.micros[mi].Len)
		deff := inv.deff
		misses := inv.misses
		cmem := float64(latCycles) + float64(cfg.L3.LatencyCycles)
		cbus := 0.0
		if !c.opts.NoBusQueue {
			mlpPrime := mlp.RescaleForStores(mem.MLP, misses, ge.storeMissPerUop*n)
			cbus = mlp.BusLatency(mlpPrime, busPerLine)
		}
		// Prefetch coverage (Eq 4.13): timely misses cost nothing;
		// partial ones cost the residual latency.
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
		// The stall starts only when the load reaches the ROB head and
		// the ROB has filled behind it (§2.5.3); dispatch proceeds at D
		// during the fill, so ROB/D cycles per stalling window overlap
		// with the base component and are subtracted, mirroring the
		// ROB-fill subtraction Equation 4.11 applies to chained LLC
		// hits.
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
		ev.stack.Cycles[perf.DRAM] = penalty
	}
	return ev
}

// branchResolution returns the memoized leaky-bucket fixpoint (Algorithm
// 3.2) for a positive misprediction count: the resolution time and the ROB
// occupancy, which bounds how much of the recovery the backlog can hide.
//
//mipp:hotpath
func (c *Compiled) branchResolution(mi int, cfg *config.Config, lat, mispred float64) (float64, float64) {
	v := c.branches.Get(branchKey{micro: mi, rob: cfg.ROB, width: cfg.DispatchWidth, lat: lat, mispred: mispred})
	return v[0], v[1]
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

// llcChainPenalty implements Equations 4.7-4.12.
//
//mipp:hotpath
func (c *Compiled) llcChainPenalty(mi int, cfg *config.Config, deff, mrL2, mrLLC float64) float64 {
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
	f := c.loadDepHist(cfg.ROB)
	f1 := f.Fraction(1)
	if f1 <= 0 {
		f1 = 1
	}
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
	p := c.model.Profile
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
