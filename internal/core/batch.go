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
// slice) produce identical clock-invariant stages; only MemConfig and the
// memory column differ, which is exactly what the DVFS fast path re-runs.
// FrequencyGHz, VoltageV, Name and Prefetcher are deliberately absent:
// voltage and the label never reach the core model, and frequency and the
// prefetcher only enter at the memory stage (the DRAM latency in cycles
// and the prefetcher are part of memKey), so they are the axes the fast
// path re-runs cheaply.
type nonClockKey struct {
	rem   remainder
	sizes sizes
}

// remainder is the part of a nonClockKey that neither a core column
// (dispatch width, ROB) nor a geometry size (L2 and L3 bytes) varies: the FU
// table, L1I and L1D, the L2 and L3 latency and shape, front-end depth,
// memory timing and predictor. The port map belongs to it too and is
// compared by content beside it. A Compiled interns the few remainders it
// sees, so a core column is keyed by a small integer, not by this struct.
type remainder struct {
	fu            [trace.NumClasses]config.FUSpec
	l1i           cache.Config
	l1d           cache.Config
	l2            cache.Config // SizeBytes is zero: the size is in sizes
	l3            cache.Config // SizeBytes is zero: the size is in sizes
	frontEndDepth int
	memLatencyNS  float64
	busNSPerLine  float64
	memChannels   int
	predictor     string
}

// sizes is the rest of a nonClockKey: the core-column axes, the cache
// sizes and the structures no clock-invariant stage reads (IQ, LSQ, MSHRs),
// kept so the DVFS fast path compares the whole key.
type sizes struct {
	dispatchWidth int
	rob           int
	iq            int
	lsq           int
	mshrs         int
	l2Bytes       int64
	l3Bytes       int64
}

func makeKey(cfg *config.Config) nonClockKey {
	l2, l3 := cfg.L2, cfg.L3
	l2.SizeBytes, l3.SizeBytes = 0, 0
	return nonClockKey{
		rem: remainder{
			fu:            cfg.FU,
			l1i:           cfg.L1I,
			l1d:           cfg.L1D,
			l2:            l2,
			l3:            l3,
			frontEndDepth: cfg.FrontEndDepth,
			memLatencyNS:  cfg.MemLatencyNS,
			busNSPerLine:  cfg.BusNSPerLine,
			memChannels:   cfg.MemChannels,
			predictor:     cfg.Predictor,
		},
		sizes: sizes{
			dispatchWidth: cfg.DispatchWidth,
			rob:           cfg.ROB,
			iq:            cfg.IQ,
			lsq:           cfg.LSQ,
			mshrs:         cfg.MSHRs,
			l2Bytes:       cfg.L2.SizeBytes,
			l3Bytes:       cfg.L3.SizeBytes,
		},
	}
}

// Batch is the evaluation kernel: single-goroutine, with persistent scratch
// buffers and the DVFS fast-path state. EvaluateRangeInto, the one entry
// point, borrows one from its Compiled's pool for the duration of a call.
// Per configuration it makes three lookups in the Compiled's stored stages
// — the core column, the geometry entry and the memory column — then one
// short loop over the micro-traces for the terms that read both the core
// and the geometry, and finish. When consecutive configurations
// share their nonClockKey and port map, it skips all but the memory-column
// lookup and finish, so a sweep cycling through a DVFS axis does one lookup
// and pure arithmetic per point.
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

	// rid is the interned remainder of key, or -1 past the Compiled's
	// remainder bound.
	rid int
	// core is the current core column: a stored one under coreKey, or
	// scr.core, computed for a remainder past the bound, under a coreKey
	// whose rid is -1, which no later configuration matches.
	core    *coreCol
	coreKey coreKey
	ge      *geomEntry
	// llcSum is the chained-LLC component summed over the micro-traces in
	// micro order; scr.pre holds each micro-trace's CPI before DRAM.
	llcSum float64
}

// evaluateInto evaluates cfg into res, taking the DVFS fast path when cfg
// differs from the previous configuration only in clock (and name).
//
//mipp:hotpath
func (b *Batch) evaluateInto(cfg *config.Config, res *Result) {
	key := makeKey(cfg)
	sameRem := b.keyValid && key.rem == b.key.rem && portsEqual(cfg, b.portLens, b.portBuf)
	if !sameRem || key.sizes != b.key.sizes {
		b.invariantRuns++
		b.invariants(cfg, &key, sameRem)
	}
	mc := cfg.MemConfig()
	b.c.finish(cfg, b.core, b.ge, b.scr.pre, b.llcSum, b.memColumn(cfg, mc), mc, res)
}

// memColumn returns cfg's memory-stage column from the Compiled's shared
// table, under the branch miss rate of the current core column: one
// lookup, whatever the micro-trace count.
//
//mipp:hotpath
func (b *Batch) memColumn(cfg *config.Config, mc memory.Config) []mlp.MicroMem {
	return b.c.mems.Get(memKey{
		rob:        cfg.ROB,
		mshrs:      cfg.MSHRs,
		latCycles:  mc.LatencyCycles,
		llcLines:   cfg.L3.Lines(),
		prefetcher: cfg.Prefetcher,
		missRate:   b.core.missRate,
	})
}

// invariants is the kernel's clock-invariant stage: the core column, the
// geometry entry, and the combine loop over both. sameRem reports that
// cfg's remainder and port map equal the previous configuration's, so the
// interned remainder is still b.rid.
//
//mipp:hotpath
func (b *Batch) invariants(cfg *config.Config, key *nonClockKey, sameRem bool) {
	c := b.c
	if !sameRem {
		b.rid = c.intern(&key.rem, cfg)
		b.portLens, b.portBuf = snapshotPortsInto(cfg, b.portLens, b.portBuf)
	}
	ck := coreKey{rid: b.rid, width: cfg.DispatchWidth, rob: cfg.ROB}
	switch {
	case b.rid < 0:
		// Past the remainder bound: computed here, never stored, and
		// never matched by a later configuration's coreKey.
		c.coreOverflows.Add(1)
		c.fillCore(&b.scr.core, cfg, &b.scr)
		b.core, b.coreKey = &b.scr.core, ck
	case b.core == nil || ck != b.coreKey:
		b.core, b.coreKey = c.cores.Get(ck), ck
	}
	if b.rid < 0 {
		b.ge = c.geoms.Get(geomKey{cfg.L1D, cfg.L2, cfg.L3, cfg.L1I})
	} else {
		b.ge = c.remGeoms.Get(remGeomKey{b.rid, cfg.L2.SizeBytes, cfg.L3.SizeBytes})
	}
	b.combine(cfg)
	b.key = *key
	b.keyValid = true
}

// combine is the one loop over the micro-traces that reads both stored
// stages: the chained-LLC term (§4.8, Eq 4.7-4.12), which needs Deff from
// the core column and the clamped miss ratios from the geometry, and each
// micro-trace's CPI before its DRAM component, ((base + branch) + I-cache)
// + LLC, added in CPIStack.Total's order.
//
//mipp:hotpath
func (b *Batch) combine(cfg *config.Config) {
	c := b.c
	core, ge := b.core, b.ge
	pre := b.scr.ensurePre(len(c.micros))
	llcSum := 0.0
	for mi := range pre {
		cm, gm := &core.micros[mi], &ge.micros[mi]
		llc := 0.0
		if !c.opts.NoLLCChain && c.micros[mi].Len > 0 {
			llc = c.llcChainPenalty(mi, cfg, cm.deff, gm.mrL2, gm.mrLLC, core.f1)
		}
		llcSum += llc
		pre[mi] = cm.baseBranch + gm.icache + llc
	}
	b.llcSum = llcSum
}

// portsEqual compares cfg's port map against a flattened snapshot by
// content. Design-space enumerators build fresh Port slices per
// configuration, so this is a content comparison, not a pointer one.
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
