// Package profiler is the Architecture Independent Profiler (AIP): a single
// pass over a workload's dynamic micro-op stream collects every
// micro-architecture independent statistic the analytical model needs —
// instruction mix, dependence chains (AP/ABP/CP per ROB size), linear branch
// entropy, reuse-distance distributions, cold-miss distributions and
// per-static-load spacing/stride/dependence distributions.
//
// Profiling uses micro-trace sampling (§5.1): a micro-trace of MicroUops is
// profiled in detail at the start of every window of WindowUops; in between,
// only the cheap global statistics (reuse distances, cold-miss tracking,
// branch entropy) are maintained. A profile is collected once per workload
// and reused across the entire design space (§2.6).
package profiler

import (
	"slices"
	"sort"

	"mipp/internal/branch"
	"mipp/internal/stats"
	"mipp/internal/trace"
)

// Options configures a profiling run.
type Options struct {
	// MicroUops is the length of one detailed micro-trace (default 1000).
	MicroUops int
	// WindowUops is the sampling period: one micro-trace is collected per
	// window (default max(10×MicroUops, stream length / 100)).
	WindowUops int
	// ROBs is the set of profiled ROB sizes (default StandardROBs()), in
	// any order, repeats allowed; Run panics on a size below 1.
	ROBs []int
	// LineBytes is the cache-line granularity for memory statistics.
	LineBytes uint64
	// EntropyHistory is the local-history length of the linear branch
	// entropy metric (default 12 bits).
	EntropyHistory uint
	// Bursts is the number of reuse-distance bursts the stream is split
	// into (§5.4.1); per-burst conversion keeps StatStack accurate for
	// phase-heterogeneous streams (default 12).
	Bursts int
}

// ROBIndexFor returns the index into o.ROBs of the profiled ROB size nearest
// rob (the first wins on ties, matching the strict-< scans it replaces), or
// -1 when no ROB sizes were profiled. Every consumer that quantizes an
// arbitrary ROB to a profiled one — dependence histograms, cold-miss
// windows, the stride-MLP depth assignment — goes through this, so memo
// tables keyed by the index agree exactly with the lookups they cache.
func (o Options) ROBIndexFor(rob int) int {
	best, bestDiff := -1, 1<<30
	for i, r := range o.ROBs {
		d := r - rob
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}

func (o Options) withDefaults(streamLen int) Options {
	if o.MicroUops <= 0 {
		o.MicroUops = 1000
	}
	if o.WindowUops <= 0 {
		o.WindowUops = streamLen / 100
		if min := o.MicroUops * 10; o.WindowUops < min {
			o.WindowUops = min
		}
	}
	if o.WindowUops < o.MicroUops {
		o.WindowUops = o.MicroUops
	}
	if len(o.ROBs) == 0 {
		o.ROBs = StandardROBs()
	}
	if o.LineBytes == 0 {
		o.LineBytes = 64
	}
	if o.EntropyHistory == 0 {
		o.EntropyHistory = 12
	}
	if o.Bursts <= 0 {
		o.Bursts = 12
	}
	return o
}

// ReuseBurst holds the reuse-distance histograms of one burst of the memory
// access stream (§5.4.1). Converting each burst separately and aggregating
// miss ratios keeps the StatStack conversion accurate when locality changes
// across program phases.
type ReuseBurst struct {
	All       *stats.Histogram `json:"all"`
	Load      *stats.Histogram `json:"load"`
	Store     *stats.Histogram `json:"store"`
	ColdAll   int64            `json:"cold_all"`
	ColdLoad  int64            `json:"cold_load"`
	ColdStore int64            `json:"cold_store"`
	Loads     int64            `json:"loads"`
	Stores    int64            `json:"stores"`
}

// StaticLoad summarizes one static load's behaviour within one micro-trace:
// its load-spacing and stride distributions (§4.5).
type StaticLoad struct {
	Static   uint32 `json:"static"`
	PC       uint64 `json:"pc"`
	FirstPos int    `json:"first_pos"` // position in the micro-trace
	Count    int    `json:"count"`
	// SpacingSum is the total uop distance between successive recurrences;
	// SpacingSum/(Count-1) is the average spacing.
	SpacingSum int              `json:"spacing_sum"`
	Strides    *stats.Histogram `json:"strides"` // byte deltas between recurrences

	lastPos  int
	lastAddr uint64
	seen     bool
}

// AvgSpacing returns the mean uop distance between recurrences (0 for a
// unique load).
func (s *StaticLoad) AvgSpacing() float64 {
	if s.Count < 2 {
		return 0
	}
	return float64(s.SpacingSum) / float64(s.Count-1)
}

// Micro is the detailed profile of one micro-trace.
type Micro struct {
	Start     int                     `json:"start"` // uop index of the first profiled uop
	Len       int                     `json:"len"`
	Instrs    int64                   `json:"instrs"`
	MixCounts [trace.NumClasses]int64 `json:"mix"`
	Branches  int64                   `json:"branches"`
	// Chains holds AP/ABP/CP for the standard ROB sizes.
	Chains *ChainSet `json:"chains"`
	// LoadDeps[i] is the inter-load dependence distribution f(ℓ) for
	// Options.ROBs[i].
	LoadDeps []*stats.Histogram `json:"load_deps"`
	// ColdLoads counts loads touching a line never touched before in the
	// full stream.
	ColdLoads int64 `json:"cold_loads"`
	// LoadCount and StoreCount are the memory accesses in this trace.
	LoadCount  int64 `json:"loads"`
	StoreCount int64 `json:"stores"`
	// Reuse and ReuseLoads are reuse-distance histograms of this trace's
	// accesses, measured against the full-stream history.
	Reuse      *stats.Histogram `json:"reuse"`
	ReuseLoads *stats.Histogram `json:"reuse_loads"`
	// ColdReuse counts this trace's first-touch accesses (infinite reuse).
	ColdReuse     int64 `json:"cold_reuse"`
	ColdLoadReuse int64 `json:"cold_load_reuse"`
	// Loads lists the per-static-load spacing/stride records.
	Loads []*StaticLoad `json:"static_loads"`
}

// Mix returns this micro-trace's uop-class fractions.
func (m *Micro) Mix() [trace.NumClasses]float64 {
	var out [trace.NumClasses]float64
	if m.Len == 0 {
		return out
	}
	for c, n := range m.MixCounts {
		out[c] = float64(n) / float64(m.Len)
	}
	return out
}

// Source names the built-in generator call that produced a profiled
// stream, so the stream can be rebuilt for the reference simulator.
type Source struct {
	Generator string `json:"generator"`
	Uops      int    `json:"uops"`
	Seed      int64  `json:"seed"` // 0 = the generator's default seed
}

// Profile is the complete micro-architecture independent application profile.
type Profile struct {
	Workload    string  `json:"workload"`
	TotalUops   int64   `json:"total_uops"`
	TotalInstrs int64   `json:"total_instrs"`
	Opts        Options `json:"options"`

	// Source is set by callers that generated the stream themselves; Run
	// leaves it nil, since it sees only the stream.
	Source *Source `json:"source,omitempty"`

	// Micros are the sampled micro-trace profiles.
	Micros []*Micro `json:"micros"`

	// Entropy is the linear branch entropy over the full stream.
	Entropy  float64 `json:"entropy"`
	Branches int64   `json:"branches"`

	// Global reuse-distance histograms at line granularity: all accesses
	// combined, split by the type of the reusing access, and the
	// instruction-fetch side.
	ReuseAll   *stats.Histogram `json:"reuse_all"`
	ReuseLoad  *stats.Histogram `json:"reuse_load"`
	ReuseStore *stats.Histogram `json:"reuse_store"`
	ReuseInstr *stats.Histogram `json:"reuse_instr"`
	// Cold (first-touch) access counts: infinite reuse distance.
	ColdAll    int64 `json:"cold_all"`
	ColdLoads  int64 `json:"cold_loads"`
	ColdStores int64 `json:"cold_stores"`
	ColdInstr  int64 `json:"cold_instr"`
	// Access totals over the full stream.
	MemAccesses int64 `json:"mem_accesses"`
	LoadCount   int64 `json:"loads"`
	StoreCount  int64 `json:"stores"`
	InstrFetch  int64 `json:"ifetches"`

	// ColdPerROB[i] is the distribution of the number of cold-miss loads
	// per window of Opts.ROBs[i] uops, over the full stream (§4.4).
	ColdPerROB []*stats.Histogram `json:"cold_per_rob"`

	// Bursts are the per-burst reuse-distance histograms (§5.4.1).
	Bursts []*ReuseBurst `json:"bursts"`

	// PerStaticReuse maps a static load to the reuse-distance histogram of
	// its accesses (sampled over the full stream), used by the stride-MLP
	// model to estimate per-static-load miss rates.
	PerStaticReuse map[uint32]*stats.Histogram `json:"per_static_reuse"`
	// PerStaticCold counts first-touch accesses per static load.
	PerStaticCold map[uint32]int64 `json:"per_static_cold"`

	// Chains is the micro-trace-averaged dependence-chain profile.
	Chains *ChainSet `json:"chains"`
	// MixCounts is the sampled aggregate instruction mix.
	MixCounts  [trace.NumClasses]int64 `json:"mix"`
	MicroUops  int64                   `json:"micro_uops"`  // total uops profiled in micro-traces
	MicroInstr int64                   `json:"micro_instr"` // total instrs in micro-traces
}

// Mix returns the sampled aggregate uop-class fractions.
func (p *Profile) Mix() [trace.NumClasses]float64 {
	var out [trace.NumClasses]float64
	if p.MicroUops == 0 {
		return out
	}
	for c, n := range p.MixCounts {
		out[c] = float64(n) / float64(p.MicroUops)
	}
	return out
}

// UopsPerInstruction returns the sampled CISC expansion ratio.
func (p *Profile) UopsPerInstruction() float64 {
	if p.MicroInstr == 0 {
		return 1
	}
	return float64(p.MicroUops) / float64(p.MicroInstr)
}

// LoadFrac returns the fraction of uops that are loads (sampled).
func (p *Profile) LoadFrac() float64 { return p.Mix()[trace.Load] }

// StoreFrac returns the fraction of uops that are stores (sampled).
func (p *Profile) StoreFrac() float64 { return p.Mix()[trace.Store] }

// BranchFrac returns the fraction of uops that are branches (sampled).
func (p *Profile) BranchFrac() float64 { return p.Mix()[trace.Branch] }

// ColdMissAvgPerROB returns m_cold(ROB): the average number of cold-miss
// loads per ROB-sized window, over windows containing at least one (§4.4).
func (p *Profile) ColdMissAvgPerROB(rob int) float64 {
	h := p.coldHistFor(rob)
	if h == nil {
		return 0
	}
	var sum, nonEmpty float64
	for _, k := range h.Keys() {
		if k > 0 {
			sum += float64(k) * h.Count(k)
			nonEmpty += h.Count(k)
		}
	}
	if nonEmpty == 0 {
		return 0
	}
	return sum / nonEmpty
}

// coldHistFor returns the cold-per-window histogram for the profiled ROB
// size closest to rob.
func (p *Profile) coldHistFor(rob int) *stats.Histogram {
	if len(p.ColdPerROB) == 0 {
		return nil
	}
	best := p.Opts.ROBIndexFor(rob)
	if best < 0 {
		best = 0
	}
	return p.ColdPerROB[best]
}

// LoadDepHistFor returns the aggregate inter-load dependence distribution
// f(ℓ) for the profiled ROB size closest to rob, merged across micro-traces.
func (p *Profile) LoadDepHistFor(rob int) *stats.Histogram {
	return p.LoadDepHistAt(max(p.Opts.ROBIndexFor(rob), 0))
}

// LoadDepHistAt returns the aggregate f(ℓ) at profiled-ROB index idx,
// merged across micro-traces.
func (p *Profile) LoadDepHistAt(idx int) *stats.Histogram {
	out := stats.NewHistogram()
	for _, m := range p.Micros {
		if idx < len(m.LoadDeps) && m.LoadDeps[idx] != nil {
			out.Merge(m.LoadDeps[idx])
		}
	}
	return out
}

// Run profiles a stream with the given options.
func Run(s *trace.Stream, opts Options) *Profile {
	o := opts.withDefaults(s.Len())
	checkROBs(o.ROBs)
	p := &Profile{
		Workload:       s.Name,
		TotalUops:      int64(s.Len()),
		Opts:           o,
		ReuseAll:       stats.NewHistogram(),
		ReuseLoad:      stats.NewHistogram(),
		ReuseStore:     stats.NewHistogram(),
		ReuseInstr:     stats.NewHistogram(),
		PerStaticReuse: make(map[uint32]*stats.Histogram),
		PerStaticCold:  make(map[uint32]int64),
		Chains:         newChainSet(o.ROBs),
	}
	p.ColdPerROB = make([]*stats.Histogram, len(o.ROBs))
	for i := range p.ColdPerROB {
		p.ColdPerROB[i] = stats.NewHistogram()
	}

	lineShift := uint(0)
	for l := o.LineBytes; l > 1; l >>= 1 {
		lineShift++
	}

	// Full-stream memory state: last access index per line (for exact
	// reuse distances; presence doubles as the cold-miss tracker).
	lastAccess := make(map[uint64]int64)
	lastIFetch := make(map[uint64]int64)
	var memIdx, ifIdx int64

	// Cold-per-ROB window counters: window r closes after uop coldEnd[r]-1,
	// and coldNext is the earliest of those ends.
	coldInWindow := make([]int64, len(o.ROBs))
	coldEnd := slices.Clone(o.ROBs)
	coldNext := slices.Min(coldEnd)

	// Reuse bursts, bounded by uop index.
	burstUops := (s.Len() + o.Bursts - 1) / o.Bursts
	if burstUops < 1 {
		burstUops = 1
	}
	newBurst := func() *ReuseBurst {
		return &ReuseBurst{
			All:   stats.NewHistogram(),
			Load:  stats.NewHistogram(),
			Store: stats.NewHistogram(),
		}
	}
	burst := newBurst()

	var cur *Micro
	var curStatics map[uint32]*StaticLoad

	flushMicro := func(end int) {
		if cur == nil {
			return
		}
		window := s.Uops[cur.Start:end]
		cur.Len = len(window)
		cur.Chains = chainBuffers(window, o.ROBs)
		cur.LoadDeps = make([]*stats.Histogram, len(o.ROBs))
		for i, rob := range o.ROBs {
			cur.LoadDeps[i] = loadDependenceHistogram(window, rob)
		}
		for _, sl := range curStatics {
			cur.Loads = append(cur.Loads, sl)
		}
		sort.Slice(cur.Loads, func(i, j int) bool { return cur.Loads[i].Static < cur.Loads[j].Static })
		p.Micros = append(p.Micros, cur)
		p.MicroUops += int64(cur.Len)
		p.MicroInstr += cur.Instrs
		cur = nil
		curStatics = nil
	}

	for i := range s.Uops {
		u := &s.Uops[i]
		if i > 0 && i%burstUops == 0 {
			p.Bursts = append(p.Bursts, burst)
			burst = newBurst()
		}
		inMicro := i%o.WindowUops < o.MicroUops
		if inMicro && cur == nil {
			cur = &Micro{
				Start:      i,
				Reuse:      stats.NewHistogram(),
				ReuseLoads: stats.NewHistogram(),
			}
			curStatics = make(map[uint32]*StaticLoad)
		}
		if !inMicro && cur != nil {
			flushMicro(i)
		}

		if u.First {
			p.TotalInstrs++
			// Instruction-side reuse at line granularity.
			pcLine := u.PC >> 6
			if last, ok := lastIFetch[pcLine]; ok {
				p.ReuseInstr.Add(ifIdx - last - 1)
			} else {
				p.ColdInstr++
			}
			lastIFetch[pcLine] = ifIdx
			ifIdx++
			p.InstrFetch++
		}

		if u.Class == trace.Branch {
			p.Branches++
		}

		if u.Class.IsMem() {
			line := u.Addr >> lineShift
			isLoad := u.Class == trace.Load
			var reuse int64 = -1
			if last, ok := lastAccess[line]; ok {
				reuse = memIdx - last - 1
			}
			cold := reuse < 0
			lastAccess[line] = memIdx
			memIdx++
			p.MemAccesses++
			if isLoad {
				p.LoadCount++
			} else {
				p.StoreCount++
			}
			if isLoad {
				burst.Loads++
			} else {
				burst.Stores++
			}
			if cold {
				p.ColdAll++
				burst.ColdAll++
				if isLoad {
					p.ColdLoads++
					burst.ColdLoad++
					for r := range coldInWindow {
						coldInWindow[r]++
					}
					p.PerStaticCold[u.Static]++
				} else {
					p.ColdStores++
					burst.ColdStore++
				}
			} else {
				p.ReuseAll.Add(reuse)
				burst.All.Add(reuse)
				if isLoad {
					p.ReuseLoad.Add(reuse)
					burst.Load.Add(reuse)
				} else {
					p.ReuseStore.Add(reuse)
					burst.Store.Add(reuse)
				}
			}
			if isLoad {
				h := p.PerStaticReuse[u.Static]
				if h == nil {
					h = stats.NewHistogram()
					p.PerStaticReuse[u.Static] = h
				}
				if !cold {
					h.Add(reuse)
				}
			}
			if cur != nil {
				pos := i - cur.Start
				if isLoad {
					cur.LoadCount++
					if cold {
						cur.ColdLoads++
						cur.ColdLoadReuse++
					} else {
						cur.ReuseLoads.Add(reuse)
					}
					sl := curStatics[u.Static]
					if sl == nil {
						sl = &StaticLoad{
							Static:   u.Static,
							PC:       u.PC,
							FirstPos: pos,
							Strides:  stats.NewHistogram(),
						}
						curStatics[u.Static] = sl
					}
					if sl.seen {
						sl.SpacingSum += pos - sl.lastPos
						sl.Strides.Add(int64(u.Addr) - int64(sl.lastAddr))
					}
					sl.seen = true
					sl.Count++
					sl.lastPos = pos
					sl.lastAddr = u.Addr
				} else {
					cur.StoreCount++
				}
				if cold {
					cur.ColdReuse++
				} else {
					cur.Reuse.Add(reuse)
				}
			}
		}

		if cur != nil {
			cur.MixCounts[u.Class]++
			if u.First {
				cur.Instrs++
			}
			if u.Class == trace.Branch {
				cur.Branches++
			}
		}

		// Close cold-per-ROB windows.
		if i+1 == coldNext {
			for r, rob := range o.ROBs {
				if coldEnd[r] == coldNext {
					p.ColdPerROB[r].Add(coldInWindow[r])
					coldInWindow[r] = 0
					coldEnd[r] += rob
				}
			}
			coldNext = slices.Min(coldEnd)
		}
	}
	flushMicro(s.Len())
	if burst.Loads+burst.Stores > 0 {
		p.Bursts = append(p.Bursts, burst)
	}

	// Aggregate micro-trace statistics.
	var w float64
	for _, m := range p.Micros {
		for c, n := range m.MixCounts {
			p.MixCounts[c] += n
		}
		p.Chains.addWeighted(m.Chains, float64(m.Len))
		w += float64(m.Len)
	}
	p.Chains.scale(w)

	// Linear branch entropy over the full stream (Eq 3.15).
	p.Entropy = branch.Entropy(s, o.EntropyHistory)
	return p
}
