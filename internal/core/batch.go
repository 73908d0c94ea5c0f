package core

import (
	"context"

	"mipp/internal/cache"
	"mipp/internal/config"
	"mipp/internal/memory"
	"mipp/internal/mlp"
	"mipp/internal/trace"
)

// CtxCheckStride is how many configurations EvaluateRangeInto evaluates
// between consecutive ctx.Err() polls. ctx.Err() is a synchronized load
// (an atomic at best, a mutex on some Context implementations), which at
// ~1µs/config is measurable on every iteration of the hot loop; polling
// every 64 configs bounds cancellation latency to a few tens of
// microseconds while making the check's cost invisible. The poll at k == 0
// still catches an already-cancelled context before any work happens.
const CtxCheckStride = 64

// BatchResult is a reusable block of result rows: one Result per
// configuration plus a valid flag, grown once by PrepareBatch and reused
// across generations so the steady-state batched path allocates nothing.
// Every row's MicroCPI aliases its own run of one config-major backing
// array, so a whole generation is three allocations no matter how many
// configs it holds, and the kernel writes each row in place.
//
// A BatchResult owns its memory: rows alias buffers the next PrepareBatch
// overwrites, so callers that publish results (NDJSON streams, search
// updates) copy before the buffers are reused. A BatchResult is not safe
// for concurrent writers on overlapping row ranges; disjoint ranges (one
// per sweep worker) are race-free.
type BatchResult struct {
	rows  []Result
	valid []bool
	// microCPI is the config-major backing array of the rows' MicroCPI.
	microCPI []float64
	// dirty is the most rows any PrepareBatch sized br for since the last
	// Release: the prefix of rows that may still pin strings.
	dirty int
}

// grow returns s resized to n, reusing its backing array when it is large
// enough and zeroing the returned prefix either way.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// PrepareBatch sizes br for n configurations evaluated by this kernel,
// growing each buffer only when the previous capacity is too small.
func (c *Compiled) PrepareBatch(br *BatchResult, n int) {
	nm := len(c.micros)
	br.dirty = max(br.dirty, n)
	br.rows = grow(br.rows, n)
	br.valid = grow(br.valid, n)
	br.microCPI = grow(br.microCPI, n*nm)
	for i := range br.rows {
		br.rows[i].MicroCPI = br.microCPI[i*nm : (i+1)*nm : (i+1)*nm]
	}
}

// Len returns the number of configuration slots in the batch.
func (br *BatchResult) Len() int { return len(br.rows) }

// Valid reports whether slot i holds an evaluated result (false for nil
// configurations and slots past a cancellation point).
func (br *BatchResult) Valid(i int) bool { return br.valid[i] }

// Row returns slot i's result in place. Its MicroCPI aliases the batch's
// backing array; both stay valid until the next PrepareBatch on br.
func (br *BatchResult) Row(i int) *Result { return &br.rows[i] }

// Release drops the references a reused BatchResult pins (configuration
// name strings) without freeing its buffers, so a pooled batch keeps its
// capacity but no foreign memory. It clears only the rows written since the
// last Release, so releasing a large pooled batch after a small use costs
// the small use.
func (br *BatchResult) Release() {
	written := br.rows[:br.dirty]
	for i := range written {
		written[i].Config = ""
	}
	br.rows, br.dirty = br.rows[:0], 0
}

// nonClockKey is the comparable projection of a configuration onto the
// fields the clock-invariant kernel stages read. Two configurations with
// equal keys (and equal port maps — compared separately because Ports is a
// slice) produce identical invariants; only MemConfig and the memory
// column differ, which is exactly what the DVFS fast path re-runs.
// FrequencyGHz, VoltageV, Name and Prefetcher are deliberately absent:
// voltage and the label never reach the core model, and frequency and the
// prefetcher only enter at the memory stage (the DRAM latency in cycles
// and the prefetcher are part of memKey), so they are the axes the fast
// path re-runs cheaply.
type nonClockKey struct {
	dispatchWidth int
	rob           int
	iq            int
	lsq           int
	frontEndDepth int
	mshrs         int
	fu            [trace.NumClasses]config.FUSpec
	l1i           cache.Config
	l1d           cache.Config
	l2            cache.Config
	l3            cache.Config
	memLatencyNS  float64
	busNSPerLine  float64
	memChannels   int
	predictor     string
	numPorts      int
}

func makeKey(cfg *config.Config) nonClockKey {
	return nonClockKey{
		dispatchWidth: cfg.DispatchWidth,
		rob:           cfg.ROB,
		iq:            cfg.IQ,
		lsq:           cfg.LSQ,
		frontEndDepth: cfg.FrontEndDepth,
		mshrs:         cfg.MSHRs,
		fu:            cfg.FU,
		l1i:           cfg.L1I,
		l1d:           cfg.L1D,
		l2:            cfg.L2,
		l3:            cfg.L3,
		memLatencyNS:  cfg.MemLatencyNS,
		busNSPerLine:  cfg.BusNSPerLine,
		memChannels:   cfg.MemChannels,
		predictor:     cfg.Predictor,
		numPorts:      len(cfg.Ports),
	}
}

// maxColCacheEntries bounds each of a warm Batch's column caches;
// realistic grid sweeps touch well under this many geometries or ROB
// sizes. At the bound a cache is flushed whole onto its free list —
// amortized O(1), never different results.
const maxColCacheEntries = 256

// colCache is one of a kernel's bounded per-micro column caches: a map from
// the config slice a stage reads to that stage's per-micro column, with the
// columns of a flushed cache recycled through a free list.
type colCache[K comparable, T any] struct {
	cols map[K][]T
	free [][]T
}

// get returns the column cached under k.
//
//mipp:hotpath
func (cc *colCache[K, T]) get(k K) ([]T, bool) {
	col, ok := cc.cols[k]
	return col, ok
}

// add stores and returns a column of length n under k, for the caller to
// fill completely before reading it: a recycled column when one is large
// enough, else a new one.
func (cc *colCache[K, T]) add(k K, n int) []T {
	if cc.cols == nil {
		cc.cols = make(map[K][]T, 16)
	} else if len(cc.cols) >= maxColCacheEntries {
		for k2, col := range cc.cols {
			// The free list holds interchangeable spare capacity: add's
			// caller fully overwrites a recycled column before it is read,
			// so the map-iteration order never reaches a result.
			//mipp:allow determinism free-list of fungible buffers, contents overwritten before use
			cc.free = append(cc.free, col)
			delete(cc.cols, k2)
		}
	}
	var col []T
	if f := len(cc.free); f > 0 {
		col = cc.free[f-1]
		cc.free = cc.free[:f-1]
	}
	if cap(col) < n {
		col = make([]T, n)
	}
	col = col[:n]
	cc.cols[k] = col
	return col
}

// Batch is the evaluation kernel: single-goroutine, with persistent scratch
// buffers, lookup caches and the DVFS fast-path state. Every entry point
// (Evaluate, EvaluateRangeInto) borrows one from its Compiled's pool for
// the duration of a call. When consecutive configurations share their
// nonClockKey and port map, the kernel skips the geometry/miss-ratio/chain
// stages entirely and re-runs only the memory-column lookup (one shared
// table read per configuration) and the final combine, so a sweep cycling
// through a DVFS axis does one lookup and pure arithmetic per point.
type Batch struct {
	c   *Compiled
	scr scratch

	keyValid bool
	key      nonClockKey
	// portBuf/portLens is the flattened port-map snapshot backing the
	// content comparison (Ports is a slice and not part of nonClockKey).
	portBuf  []trace.Class
	portLens []int
	// invariantRuns counts clock-invariant stage runs, so tests can see
	// whether the DVFS fast path skipped them.
	invariantRuns int

	ge       *geomEntry
	missRate float64

	// Clock-invariant lookup caches local to this single-goroutine kernel.
	// They serve the values the Compiled memo tables would — geometry per
	// cache-geometry key, raw per-micro miss-ratio triples per geometry,
	// per-micro critical-path interpolations per ROB — without the tables'
	// RWMutex and map hashing, which together dominate the mixed-axis hot
	// loop. Values are bit-identical (they come from the same tables on a
	// miss), so a warm kernel returns byte-for-byte what a cold one would.
	geomKeyCached geomKey
	geomCached    *geomEntry
	mrs           colCache[geomKey, float64] // 3 per micro: L1, L2, LLC miss ratio
	cps           colCache[int, float64]     // 1 per micro: CP at that ROB

	// Port/unit dispatch-bound cache: the bounds depend only on the port
	// map and FU table, so the handful of distinct back-ends a sweep visits
	// (one per dispatch width, typically) each compute once. Keyed by the
	// FU table plus the width that selected the port map, with the actual
	// flattened port snapshot verified on every hit so two different port
	// maps behind one key can never alias.
	puCache map[puKey]*puEntry
	puFree  []*puEntry
}

// evaluateInto evaluates cfg into res, taking the DVFS fast path when cfg
// differs from the previous configuration only in clock (and name).
//
//mipp:hotpath
func (b *Batch) evaluateInto(cfg *config.Config, res *Result) {
	key := makeKey(cfg)
	if !b.keyValid || key != b.key || !b.samePorts(cfg) {
		b.invariantRuns++
		b.ge, b.missRate = b.invariants(cfg)
		b.key = key
		b.snapshotPorts(cfg)
		b.keyValid = true
	}
	mc := cfg.MemConfig()
	b.c.finish(cfg, b.ge, b.missRate, b.scr.invs, b.memColumn(cfg, mc), mc, res)
}

// memColumn returns cfg's memory-stage column from the Compiled's shared
// table, under the branch miss rate of the current invariants: one lookup,
// whatever the micro-trace count.
//
//mipp:hotpath
func (b *Batch) memColumn(cfg *config.Config, mc memory.Config) []mlp.MicroMem {
	return b.c.mems.Get(memKey{
		rob:        cfg.ROB,
		mshrs:      cfg.MSHRs,
		latCycles:  mc.LatencyCycles,
		llcLines:   cfg.L3.Lines(),
		prefetcher: cfg.Prefetcher,
		missRate:   b.missRate,
	})
}

// invariants is the kernel's clock-invariant stage: the geometry entry,
// the branch miss rate, and one microInv per micro-trace in b.scr.invs.
// The memoized inputs come from the kernel's local caches (geometry entry,
// miss-ratio triples, critical paths), which fall back to the shared memo
// tables on a miss.
//
//mipp:hotpath
func (b *Batch) invariants(cfg *config.Config) (*geomEntry, float64) {
	c := b.c
	gk := geomKey{cfg.L1D, cfg.L2, cfg.L3, cfg.L1I}
	if b.geomCached == nil || gk != b.geomKeyCached {
		b.geomCached = c.geoms.Get(gk)
		b.geomKeyCached = gk
	}
	ge := b.geomCached
	missRate := c.opts.BranchMissRate
	if missRate < 0 {
		missRate = c.model.missRateFor(cfg.Predictor)
	}
	scr := &b.scr
	scr.ensureMicros(len(c.micros))
	mr := b.missRatios(gk)
	cps := b.criticalPaths(cfg.ROB)
	full := c.opts.DispatchModel == DispatchFull
	var pu []float64
	if full {
		pu = b.portUnits(cfg)
	}
	for mi := range c.micros {
		if c.micros[mi].Len == 0 {
			scr.invs[mi] = microInv{skip: true}
			continue
		}
		var portD, unitD float64
		if full {
			portD, unitD = pu[2*mi], pu[2*mi+1]
		}
		c.microInvariant(mi, cfg, ge, missRate,
			mr[3*mi], mr[3*mi+1], mr[3*mi+2], cps[mi], portD, unitD, &scr.invs[mi])
	}
	return ge, missRate
}

// puKey selects a port/unit cache entry: the FU table (comparable) plus the
// dispatch width and port count standing in for the port map itself (a
// slice, not hashable). Distinct port maps that collide on a key are told
// apart by the snapshot comparison in portUnits, so the key is a locator,
// never the correctness boundary.
type puKey struct {
	fu       [trace.NumClasses]config.FUSpec
	width    int
	numPorts int
}

// puEntry is one cached back-end: the flattened port snapshot that
// validates a hit and the per-micro [portD, unitD] column.
type puEntry struct {
	lens []int
	buf  []trace.Class
	col  []float64
}

// maxPuCacheEntries bounds the distinct back-ends a warm Batch retains —
// sweeps touch one per dispatch width, far below this. Flushed whole onto
// the free list at the bound, like the column caches.
const maxPuCacheEntries = 64

// portUnits returns the per-micro [portD, unitD] dispatch bounds for cfg's
// execution back-end, computing each distinct (FU table, port map) once per
// kernel lifetime. A multi-entry cache matters for randomized drivers
// (search samplers), whose consecutive configs alternate dispatch widths; a
// single-entry cache would recompute the §3.4 greedy port schedule on
// nearly every config.
//
//mipp:hotpath
func (b *Batch) portUnits(cfg *config.Config) []float64 {
	k := puKey{fu: cfg.FU, width: cfg.DispatchWidth, numPorts: len(cfg.Ports)}
	if e, ok := b.puCache[k]; ok && portsEqual(cfg, e.lens, e.buf) {
		return e.col
	}
	c := b.c
	n := len(c.micros)
	if b.puCache == nil {
		b.puCache = make(map[puKey]*puEntry, 8)
	} else if len(b.puCache) >= maxPuCacheEntries {
		for k2, e := range b.puCache {
			// The free list holds interchangeable spare entries: the refill
			// below fully overwrites a recycled entry before it is read, so
			// the map-iteration order never reaches a result.
			//mipp:allow determinism free-list of fungible buffers, contents overwritten before use
			b.puFree = append(b.puFree, e)
			delete(b.puCache, k2)
		}
	}
	e := b.puCache[k] // key collision with a different port map: overwrite in place
	if e == nil {
		if fl := len(b.puFree); fl > 0 {
			e = b.puFree[fl-1]
			b.puFree = b.puFree[:fl-1]
		} else {
			e = new(puEntry)
		}
		b.puCache[k] = e
	}
	if cap(e.col) < 2*n {
		e.col = make([]float64, 2*n)
	}
	col := e.col[:2*n]
	for mi := range c.micros {
		if c.micros[mi].Len == 0 {
			col[2*mi], col[2*mi+1] = 0, 0
			continue
		}
		col[2*mi], col[2*mi+1] = effectiveDispatchLimits(c.microMixes[mi], cfg, &b.scr)
	}
	e.col = col
	e.lens, e.buf = snapshotPortsInto(cfg, e.lens, e.buf)
	return col
}

// missRatios returns the per-micro [L1, L2, LLC] raw load miss ratios for
// one cache geometry, cached locally.
//
//mipp:hotpath
func (b *Batch) missRatios(gk geomKey) []float64 {
	if col, ok := b.mrs.get(gk); ok {
		return col
	}
	col := b.mrs.add(gk, 3*len(b.c.micros))
	l1, l2, llc := float64(gk.l1d.Lines()), float64(gk.l2.Lines()), float64(gk.l3.Lines())
	for mi := range b.c.micros {
		if b.c.micros[mi].Len == 0 {
			col[3*mi], col[3*mi+1], col[3*mi+2] = 0, 0, 0
			continue
		}
		col[3*mi] = b.c.missRatio(mi, l1)
		col[3*mi+1] = b.c.missRatio(mi, l2)
		col[3*mi+2] = b.c.missRatio(mi, llc)
	}
	return col
}

// criticalPaths returns the per-micro critical-path (CP) chain
// interpolations at one ROB size, cached locally.
//
//mipp:hotpath
func (b *Batch) criticalPaths(rob int) []float64 {
	if col, ok := b.cps.get(rob); ok {
		return col
	}
	col := b.cps.add(rob, len(b.c.micros))
	for mi := range b.c.micros {
		col[mi] = 0
		if b.c.micros[mi].Len > 0 {
			_, _, col[mi] = b.c.chainAt(mi, rob)
		}
	}
	return col
}

// samePorts reports whether cfg's port map matches the snapshot taken at
// the last invariant computation. Design-space enumerators build fresh
// Port slices per configuration, so this is a content comparison, not a
// pointer one.
//
//mipp:hotpath
func (b *Batch) samePorts(cfg *config.Config) bool {
	return portsEqual(cfg, b.portLens, b.portBuf)
}

// snapshotPorts flattens cfg's port map into the kernel's reusable
// buffers.
func (b *Batch) snapshotPorts(cfg *config.Config) {
	b.portLens, b.portBuf = snapshotPortsInto(cfg, b.portLens, b.portBuf)
}

// portsEqual compares cfg's port map against a flattened snapshot by
// content.
//
//mipp:hotpath
func portsEqual(cfg *config.Config, lens []int, buf []trace.Class) bool {
	if len(cfg.Ports) != len(lens) {
		return false
	}
	k := 0
	for pi, p := range cfg.Ports {
		if len(p) != lens[pi] {
			return false
		}
		for _, cl := range p {
			if buf[k] != cl {
				return false
			}
			k++
		}
	}
	return true
}

// snapshotPortsInto flattens cfg's port map into the given reusable
// buffers, returning them resized.
func snapshotPortsInto(cfg *config.Config, lens []int, buf []trace.Class) ([]int, []trace.Class) {
	lens = lens[:0]
	buf = buf[:0]
	for _, p := range cfg.Ports {
		lens = append(lens, len(p))
		buf = append(buf, p...)
	}
	return lens, buf
}

// EvaluateRangeInto evaluates cfgs into br's slots [off, off+len(cfgs)),
// which must lie within a PrepareBatch'd br. Nil configurations leave their
// slot invalid. ctx is polled every CtxCheckStride configurations (see its
// doc); on cancellation the rows evaluated so far keep their values, the
// rest stay invalid, and ctx.Err() is returned. A nil ctx disables the
// checks. Concurrent calls on disjoint ranges of the same br are
// race-free.
//
//mipp:hotpath
func (c *Compiled) EvaluateRangeInto(ctx context.Context, cfgs []*config.Config, br *BatchResult, off int) error {
	b := c.batches.Get().(*Batch)
	var err error
	for k, cfg := range cfgs {
		if ctx != nil && k%CtxCheckStride == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if cfg == nil {
			continue
		}
		b.evaluateInto(cfg, &br.rows[off+k])
		br.valid[off+k] = true
	}
	c.putBatch(b)
	return err
}
