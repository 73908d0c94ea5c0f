package mlp

import (
	"fmt"
	"math"
	"testing"

	"mipp/internal/config"
	"mipp/internal/prefetch"
	"mipp/internal/profiler"
	"mipp/internal/stats"
	"mipp/internal/statstack"
	"mipp/internal/workload"
)

// strideGrid is the parameter grid TestStrideMLPMatchesReference walks on
// every micro-trace.
type strideGrid struct {
	llcs        []float64 // the first few are crossed with everything else
	robs        []int
	mispredicts []float64
	prefetchers []prefetch.Config
}

func newStrideGrid() strideGrid {
	g := strideGrid{
		// Below 16, between profiled sizes, and above 256.
		robs:        []int{0, 4, 12, 16, 24, 40, 100, 128, 200, 256, 300, 512},
		mispredicts: []float64{0, 3, 30, 90.5, 1000},
	}
	// The eight sizes of the wide space, then enough more to push the
	// miss-mark table past its bound.
	for i := 0; i < 8; i++ {
		g.llcs = append(g.llcs, float64(int(16384)<<i))
	}
	for i := 0; len(g.llcs) < maxColumnEntries+8; i++ {
		g.llcs = append(g.llcs, float64(1000+3000*i))
	}
	small, unbounded := prefetch.DefaultConfig(), prefetch.DefaultConfig()
	small.TableSize, unbounded.TableSize = 4, 0
	g.prefetchers = []prefetch.Config{{}, prefetch.DefaultConfig(), small, unbounded}
	return g
}

// check runs the grid on one micro-trace through one Compiled and the
// reference, comparing the raw MLP and the three prefetch figures bit for
// bit. Three LLC sizes are crossed with every ROB, misprediction window and
// prefetcher; every LLC size, including those past the miss-mark bound,
// then runs twice with a rotating (ROB, window, prefetcher).
func (g strideGrid) check(t *testing.T, name string, p *profiler.Profile, m *profiler.Micro, curve *statstack.Curve) {
	t.Helper()
	c := Compile(p, m, curve)
	streams := make(map[refKey][]virtualLoad)
	one := func(prm Params) {
		raw, pf := c.strideMLP(prm)
		wantRaw, want := refStrideMLP(p, m, curve, streams, prm)
		if math.Float64bits(raw) != math.Float64bits(wantRaw) ||
			math.Float64bits(pf.timely) != math.Float64bits(want.timely) ||
			math.Float64bits(pf.partial) != math.Float64bits(want.partial) ||
			math.Float64bits(pf.spacing) != math.Float64bits(want.spacing) {
			t.Fatalf("%s: LLC %v ROB %d mispredict %v prefetch %+v: got raw %v %+v, reference raw %v %+v",
				name, prm.LLCLines, prm.ROB, prm.MispredictEvery, prm.Prefetch, raw, pf, wantRaw, want)
		}
	}
	prm := Params{Mode: StrideMLP, MSHRs: 10, MemLatency: 200, LoadFrac: 0.3}
	for _, llc := range g.llcs[:3] {
		for _, rob := range g.robs {
			for _, mp := range g.mispredicts {
				for _, pf := range g.prefetchers {
					prm.LLCLines, prm.ROB, prm.MispredictEvery, prm.Prefetch = llc, rob, mp, pf
					one(prm)
				}
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, llc := range g.llcs {
			k := i + pass
			prm.LLCLines = llc
			prm.ROB = g.robs[k%len(g.robs)]
			prm.MispredictEvery = g.mispredicts[k%len(g.mispredicts)]
			prm.Prefetch = g.prefetchers[k%len(g.prefetchers)]
			one(prm)
		}
	}
}

// TestStrideMLPMatchesReference holds the base-stream stride-MLP model to
// the per-key stream reference bit for bit, on five workloads' micro-traces
// and on hand-built micro-traces that a decoded profile can carry.
func TestStrideMLPMatchesReference(t *testing.T) {
	g := newStrideGrid()
	cfg := config.Reference()
	var donor *profiler.Profile
	for _, name := range []string{"mcf", "gcc", "libquantum", "omnetpp", "xalancbmk"} {
		p := profiler.Run(workload.MustGenerate(name, 30_000, 0), profiler.Options{})
		curve := statstack.Predict(p, cfg.CacheLevels(), cfg.L1I).Curve
		for i, m := range p.Micros {
			g.check(t, fmt.Sprintf("%s micro %d", name, i), p, m, curve)
		}
		if name == "libquantum" {
			donor = p
		}
	}

	curve := statstack.Predict(donor, cfg.CacheLevels(), cfg.L1I).Curve
	real := donor.Micros[0]
	for _, m := range donor.Micros {
		if len(m.Loads) > len(real.Loads) {
			real = m
		}
	}
	if len(real.Loads) < 2 {
		t.Fatal("donor has no micro-trace with two static loads")
	}
	strided := real.Loads[0]
	// load builds a static-load record with count accesses spaced by
	// spacing uops, each stride given once.
	load := func(static uint32, first, count, spacing int, strides ...int64) *profiler.StaticLoad {
		sl := &profiler.StaticLoad{Static: static, FirstPos: first, Count: count, Strides: stats.NewHistogram()}
		if count > 1 {
			sl.SpacingSum = (count - 1) * spacing
		}
		for _, s := range strides {
			sl.Strides.Add(s)
		}
		return sl
	}
	random := load(strided.Static, 5, 20, 13)
	for s := int64(1); s <= 19; s++ {
		random.Strides.Add(s * 4096)
	}
	with := func(loads ...*profiler.StaticLoad) *profiler.Micro {
		m := *real
		m.Loads = append(append([]*profiler.StaticLoad(nil), real.Loads...), loads...)
		return &m
	}
	only := func(loads ...*profiler.StaticLoad) *profiler.Micro {
		m := *real
		m.Loads = loads
		return &m
	}
	// Unprofiled statics have no miss ratio of their own, so the marks
	// spread uniformly over them, ties at Len-1 included.
	clamped := only(
		load(1<<20, real.Len-3, 40, 5, 64),
		load(1<<20+1, real.Len+100, 10, 3, 8),
		load(1<<20+2, -50, 30, 5, -128),
		load(1<<20+3, real.Len-30, 60, 1, 64, 64, 64, 4096),
		load(1<<20+4, real.Len-20, 25, 1),
	)
	for _, tc := range []struct {
		name string
		m    *profiler.Micro
	}{
		// A repeated Static: the last record's classification wins, and
		// the records share one occurrence count and one LRU slot.
		{"repeated static, random last", with(random)},
		{"repeated static, strided last", with(random, strided)},
		{"clamped and negative positions", clamped},
		{"Count below 2", with(load(1<<20+5, 7, 1, 0), load(1<<20+6, 9, 0, 0), load(1<<20+7, 11, -3, 0))},
		{"no loads", only()},
	} {
		g.check(t, tc.name, donor, tc.m, curve)
	}

	// Depth keys that no small integer type holds.
	odd := stats.NewHistogram()
	for _, k := range []int64{-5, 0, 1, 2, 257, 70000, 1 << 33} {
		odd.Add(k)
	}
	deep := *real
	deep.LoadDeps = make([]*stats.Histogram, len(real.LoadDeps))
	for i := range deep.LoadDeps {
		deep.LoadDeps[i] = odd
	}
	g.check(t, "odd depth keys", donor, &deep, curve)

	// An f(ℓ) histogram with no keys, in the micro-trace and in the
	// profile aggregate; with no profiled ROB sizes the index is -1.
	empty := *real
	empty.LoadDeps = []*stats.Histogram{stats.NewHistogram(), nil}
	bare := *donor
	bare.Micros = []*profiler.Micro{&empty}
	g.check(t, "empty f(ℓ)", &bare, &empty, curve)
	bare.Opts.ROBs = nil
	g.check(t, "no profiled ROBs", &bare, &empty, curve)
}
