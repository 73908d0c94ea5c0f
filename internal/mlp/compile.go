package mlp

import (
	"mipp/internal/memo"
	"mipp/internal/profiler"
	"mipp/internal/statstack"
)

// Compiled memoizes the config-invariant pieces of the MLP models for one
// (profile, micro-trace) pair. The expensive step of the stride-MLP model —
// rebuilding and sorting the virtual instruction stream and assigning
// dependence depths — depends only on the LLC geometry and on which
// profiled ROB size the window quantizes to, so a design-space or DVFS
// sweep reuses a handful of streams across hundreds of configurations.
// Full model evaluations are additionally memoized on the subset of Params
// the models actually read; that key includes the memory latency in cycles
// (mshrCap reads it), which scales with frequency, so the points of a DVFS
// sweep share streams but still pay the (cheap) prefetcher/abstract-ROB
// walks — only exact geometry/window/latency repeats are outright free.
//
// A Compiled is safe for concurrent use; results are byte-identical to the
// package-level Evaluate for the same inputs. Both memo tables are bounded
// (maxStreamEntries, maxEvalEntries): past the cap new keys are recomputed
// per call instead of cached, so a long-lived service holds bounded state.
type Compiled struct {
	p     *profiler.Profile
	m     *profiler.Micro
	curve *statstack.Curve

	evals   *memo.Table[Params, MicroMem]
	streams *memo.Table[streamKey, []virtualLoad]
}

// streamKey identifies one virtual instruction stream: the LLC line count
// drives the miss marking, and the profiled-ROB index drives the depth
// assignment (any two ROB sizes quantizing to the same profiled size get
// identical depths).
type streamKey struct {
	llcLines float64
	robIdx   int
}

// Memo bounds per micro-trace: streams are the heavy entries (one record
// per profiled load), evals are scalar. Real sweeps stay far below both;
// the caps keep a daemon serving arbitrary client geometries bounded.
const (
	maxStreamEntries = 64
	maxEvalEntries   = 1 << 14
)

// Compile prepares the MLP models of one micro-trace for repeated
// evaluation against many configurations.
func Compile(p *profiler.Profile, m *profiler.Micro, curve *statstack.Curve) *Compiled {
	c := &Compiled{p: p, m: m, curve: curve}
	c.evals = memo.New(maxEvalEntries, c.evaluate)
	c.streams = memo.New(maxStreamEntries, c.buildStream)
	return c
}

// Stats reports how much work the memo tables absorbed: StreamBuilds is the
// number of virtual streams constructed, Computes the number of full model
// evaluations that missed the memo.
func (c *Compiled) Stats() (streamBuilds, computes uint64) {
	return c.streams.Computes(), c.evals.Computes()
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
// from the stream cache.
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

// strideMLP runs the prefetcher and abstract-ROB steps on the cached
// virtual stream; only those two (cheap, config-dependent) walks run per
// distinct configuration.
func (c *Compiled) strideMLP(prm Params) (float64, pfStats) {
	stream := c.stream(prm)
	if len(stream) == 0 {
		return 1, pfStats{}
	}
	pf := modelPrefetcher(stream, c.m, prm)
	return stepROB(stream, c.m.Len, prm.window()), pf
}

// stream returns the depth-assigned virtual instruction stream for the
// configuration's LLC geometry and ROB quantization, building it on first
// use. The cached stream is never mutated after construction.
func (c *Compiled) stream(prm Params) []virtualLoad {
	return c.streams.Get(streamKey{llcLines: prm.LLCLines, robIdx: c.p.Opts.ROBIndexFor(prm.ROB)})
}

// buildStream constructs the stream of one key: miss marks for its LLC
// line count, depths from the f(ℓ) histogram of its profiled-ROB index.
func (c *Compiled) buildStream(k streamKey) []virtualLoad {
	target := statstack.MissRatioForMicro(c.curve, c.m, k.llcLines) * float64(c.m.LoadCount)
	s := buildVirtualStream(c.p, c.m, c.curve, k.llcLines, target)
	assignDepths(s, microLoadDeps(c.p, c.m, k.robIdx))
	return s
}
