package mlp

import (
	"sync"

	"mipp/internal/memo"
	"mipp/internal/profiler"
	"mipp/internal/statstack"
)

// Compiled memoizes the config-invariant pieces of the MLP models for one
// (profile, micro-trace) pair. The stride-MLP model's virtual instruction
// stream is split by what each part depends on: the base stream —
// positions, statics, prev links, new-line accesses and the position order —
// depends on the micro-trace alone and is built once, on first stride-MLP
// use; the miss marks depend only on the LLC line count and are kept as one
// bitset per line count; the dependence depths depend only on the
// profiled-ROB index the window quantizes to and are kept as one column per
// index. A design-space or DVFS sweep therefore pays for a handful of
// bitsets and columns, not one stream per (LLC size, ROB) pair. Full model
// evaluations are additionally memoized on the subset of Params the models
// actually read; that key includes the memory latency in cycles (mshrCap
// reads it), which scales with frequency, so the points of a DVFS sweep
// share the columns but still pay the (cheap) prefetcher/abstract-ROB walks
// — only exact geometry/window/latency repeats are outright free.
//
// A Compiled is safe for concurrent use; results are byte-identical to the
// package-level Evaluate for the same inputs. The memo tables are bounded
// (maxColumnEntries, maxEvalEntries): past the cap new keys are recomputed
// per call instead of cached, so a long-lived service holds bounded state.
type Compiled struct {
	p     *profiler.Profile
	m     *profiler.Micro
	curve *statstack.Curve

	base      func() *baseStream
	evals     *memo.Table[Params, MicroMem]
	missMarks *memo.Table[float64, []uint64]
	depths    *memo.Table[int, depthColumn]
}

// Memo bounds per micro-trace: a miss-mark set costs a bit per load and a
// depth column 4 bytes per load; evals are scalar. Real sweeps stay far
// below all three; the caps keep a daemon serving arbitrary client
// geometries bounded.
const (
	maxColumnEntries = 64
	maxEvalEntries   = 1 << 14
)

// Compile prepares the MLP models of one micro-trace for repeated
// evaluation against many configurations.
func Compile(p *profiler.Profile, m *profiler.Micro, curve *statstack.Curve) *Compiled {
	c := &Compiled{p: p, m: m, curve: curve}
	c.base = sync.OnceValue(func() *baseStream { return buildBase(m) })
	c.evals = memo.New(maxEvalEntries, c.evaluate)
	c.missMarks = memo.New(maxColumnEntries, func(llcLines float64) []uint64 {
		return missMarks(p, m, curve, c.base(), llcLines)
	})
	c.depths = memo.New(maxColumnEntries, func(robIdx int) depthColumn {
		return depths(microLoadDeps(p, m, robIdx), len(c.base().pos))
	})
	return c
}

// Stats reports how much work the memo tables absorbed: the miss-mark sets
// (one per LLC line count) and depth columns (one per profiled-ROB index)
// computed, and the full model evaluations that missed the memo.
func (c *Compiled) Stats() (missMarkBuilds, depthBuilds, computes uint64) {
	return c.missMarks.Computes(), c.depths.Computes(), c.evals.Computes()
}

// Evaluate predicts the memory behaviour of the micro-trace, memoized on
// the Params fields the models read.
func (c *Compiled) Evaluate(prm Params) MicroMem {
	// Fields no MLP model reads must not fragment the memo; zeroing them
	// here is what makes a frequency or width sweep hit the cache. The
	// models see the zeroed key, so a model that starts reading one of
	// these reads zero: remove it from this list first.
	prm.DispatchRate = 0
	prm.BusPerLine = 0
	prm.L1Lines = 0
	prm.L2Lines = 0
	return c.evals.Get(prm)
}

// evaluate mirrors the package-level Evaluate, with the stride path served
// from the base stream and its column tables.
func (c *Compiled) evaluate(prm Params) MicroMem {
	out := MicroMem{Loads: float64(c.m.LoadCount)}
	out.MissPerLoad = statstack.MissRatioForMicro(c.curve, c.m, prm.LLCLines)
	switch prm.Mode {
	case None:
		out.MLP, out.RawMLP = 1, 1
	case ColdMiss:
		out.RawMLP = coldMissMLP(c.p, c.m, c.curve, prm)
		out.MLP = mshrCap(out.RawMLP, prm)
	default:
		raw, pf := c.strideMLP(prm)
		out.RawMLP = raw
		out.MLP = mshrCap(raw, prm)
		out.PrefetchTimely = pf.timely
		out.PrefetchPartial = pf.partial
		out.PartialSpacing = pf.spacing
	}
	if out.MLP < 1 {
		out.MLP = 1
	}
	return out
}

// strideMLP runs the prefetcher and abstract-ROB walks over the base stream
// with the configuration's miss marks and depths; only those two (cheap,
// config-dependent) walks run per distinct configuration.
func (c *Compiled) strideMLP(prm Params) (float64, pfStats) {
	b := c.base()
	if len(b.pos) == 0 {
		return 1, pfStats{}
	}
	marks := c.missMarks.Get(prm.LLCLines)
	pf := modelPrefetcher(b, marks, prm)
	d := c.depths.Get(c.p.Opts.ROBIndexFor(prm.ROB))
	return stepROB(b, marks, d, c.m.Len, prm.window()), pf
}
