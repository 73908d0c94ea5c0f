package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mipp/internal/config"
	"mipp/internal/mlp"
	"mipp/internal/prefetch"
)

// TestGeometryMemoOnePredictPerGeometry pins the miss-ratio memo table:
// evaluating two configurations with the same cache geometry must run
// StatStack once, and the second evaluation must return ratios identical to
// the first (a memo hit returns exactly what a fresh prediction would).
func TestGeometryMemoOnePredictPerGeometry(t *testing.T) {
	c := Compile(profileFor(t, "mcf", 60_000), nil, DefaultOptions())

	// Same geometry, different frequency and ROB — a DVFS/window sweep.
	a := config.Reference()
	b := config.Reference()
	b.Name = "ref-dvfs"
	b.FrequencyGHz = 1.6
	b.VoltageV = 0.95
	b.ROB = 256
	ra := evaluate(c, a)
	rb := evaluate(c, b)

	st := c.Stats()
	if st.StatStackPredicts != 1 {
		t.Errorf("two same-geometry configs ran StatStack %d times, want 1", st.StatStackPredicts)
	}
	// The activity factors are pure cache-geometry quantities; the memoized
	// prediction must reproduce them exactly.
	if ra.Activity.L3Misses != rb.Activity.L3Misses || ra.Activity.L1DMisses != rb.Activity.L1DMisses {
		t.Errorf("same geometry, different miss counts: %+v vs %+v", ra.Activity, rb.Activity)
	}

	// A different LLC size is a new geometry.
	d := config.Reference()
	d.Name = "llc2m"
	d.L3.SizeBytes = 2 << 20
	evaluate(c, d)
	if st := c.Stats(); st.StatStackPredicts != 2 {
		t.Errorf("new geometry ran StatStack %d times total, want 2", st.StatStackPredicts)
	}
}

// TestMissRatioMemoIdentical asserts the per-micro miss-ratio memo returns
// identical values on hit and that a same-geometry re-evaluation computes
// no new ratios.
func TestMissRatioMemoIdentical(t *testing.T) {
	c := Compile(profileFor(t, "soplex", 60_000), nil, DefaultOptions())
	cfg := config.Reference()

	first := evaluate(c, cfg)
	afterFirst := c.Stats()
	second := evaluate(c, cfg)
	afterSecond := c.Stats()

	if afterSecond.MissRatioComputes != afterFirst.MissRatioComputes {
		t.Errorf("re-evaluating the same config recomputed miss ratios: %d -> %d",
			afterFirst.MissRatioComputes, afterSecond.MissRatioComputes)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("memo-hit evaluation differs from the evaluation that filled the memo")
	}
}

// TestEvaluateBatchMatchesSequential is the kernel-level equivalence
// guarantee: a batched evaluation with reused scratch buffers must produce
// results deeply equal to a cold kernel per configuration, in input order.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	p := profileFor(t, "gcc", 60_000)
	for _, opts := range []Options{
		DefaultOptions(),
		{MLPMode: mlp.ColdMiss, BranchMissRate: -1},
		{MLPMode: mlp.StrideMLP, Combined: true, BranchMissRate: -1},
	} {
		c := Compile(p, nil, opts)
		configs := config.DesignSpace()[:30]
		batch, err := evaluateBatch(context.Background(), c, configs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range configs {
			single := coldEvaluate(c, cfg)
			if !reflect.DeepEqual(single, batch[i]) {
				t.Fatalf("opts %+v: batch[%d] (%s) differs from single evaluation", opts, i, cfg.Name)
			}
		}
	}
}

// TestEvaluateBatchCancellation asserts the kernel checks the context
// between configurations, not only at batch boundaries.
func TestEvaluateBatchCancellation(t *testing.T) {
	c := Compile(profileFor(t, "gamess", 60_000), nil, DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := evaluateBatch(ctx, c, config.DesignSpace()[:10])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range out {
		if r != nil {
			t.Fatalf("out[%d] evaluated despite pre-cancelled context", i)
		}
	}
}

// TestMemoOverflowIdentical floods the mlp miss-mark table past its bound
// (maxColumnEntries distinct LLC geometries) and asserts overflow changes
// nothing but speed: an evaluation whose memo entry was never stored still
// returns exactly what the cached evaluation returned.
func TestMemoOverflowIdentical(t *testing.T) {
	c := Compile(profileFor(t, "mcf", 60_000), nil, DefaultOptions())
	base := config.Reference()
	first := evaluate(c, base)
	// 70 distinct L3 line counts (> maxColumnEntries = 64); line-multiple
	// sizes keep the geometry meaningful without needing Validate.
	for i := 0; i < 70; i++ {
		cfg := config.Reference()
		cfg.Name = "flood"
		cfg.L3.SizeBytes = int64(1<<20 + (i+1)*64*1024)
		evaluate(c, cfg)
	}
	again := evaluate(c, base)
	if !reflect.DeepEqual(first, again) {
		t.Fatal("evaluation after memo overflow differs from the original")
	}
}

// wideSpace is the 122,880-point space of examples/search.
func wideSpace() *config.Space {
	return &config.Space{
		Widths: []int{1, 2, 3, 4, 5, 6},
		ROBs:   []int{16, 24, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 512},
		L2Bytes: []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10,
			1 << 20, 2 << 20, 4 << 20, 8 << 20},
		L3Bytes: []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20,
			16 << 20, 32 << 20, 64 << 20, 128 << 20},
		Clocks: []config.DVFSPoint{
			{FrequencyGHz: 1.2, VoltageV: 0.85}, {FrequencyGHz: 1.6, VoltageV: 0.95},
			{FrequencyGHz: 2.0, VoltageV: 1.0}, {FrequencyGHz: 2.2, VoltageV: 1.03},
			{FrequencyGHz: 2.4, VoltageV: 1.05}, {FrequencyGHz: 2.66, VoltageV: 1.1},
			{FrequencyGHz: 2.8, VoltageV: 1.13}, {FrequencyGHz: 3.0, VoltageV: 1.16},
			{FrequencyGHz: 3.2, VoltageV: 1.2}, {FrequencyGHz: 3.33, VoltageV: 1.25},
		},
		Prefetcher: []bool{false, true},
	}
}

// TestStrideColumnsOncePerKey pins the cost of a cold wide-space fill: the
// 6,144 seeded configs examples/search's budget allows, evaluated on one
// goroutine, compute one stride-MLP miss-mark set per LLC size and one
// depth column per profiled-ROB index (8 and 12) on every micro-trace with
// loads, however the configs pair the two.
func TestStrideColumnsOncePerKey(t *testing.T) {
	space := wideSpace()
	rng := rand.New(rand.NewSource(18))
	cfgs := make([]*config.Config, 6144)
	for i := range cfgs {
		cfgs[i] = space.At(rng.Intn(space.Size()))
	}
	for _, name := range []string{"mcf", "gcc"} {
		p := profileFor(t, name, 100_000)
		llcs, robs := make(map[int64]bool), make(map[int]bool)
		for _, cfg := range cfgs {
			llcs[cfg.L3.Lines()] = true
			robs[p.Opts.ROBIndexFor(cfg.ROB)] = true
		}
		if len(llcs) != 8 || len(robs) != 12 {
			t.Fatalf("%s: configs span %d LLC sizes and %d ROB indices, want 8 and 12", name, len(llcs), len(robs))
		}
		withLoads := 0
		for _, micro := range p.Micros {
			for _, sl := range micro.Loads {
				if sl.Count > 0 {
					withLoads++
					break
				}
			}
		}
		if withLoads == 0 {
			t.Fatalf("%s: no micro-trace has loads", name)
		}
		c := Compile(p, nil, DefaultOptions())
		if _, err := evaluateBatch(context.Background(), c, cfgs); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if want := uint64(8 * withLoads); st.MissMarkBuilds != want {
			t.Errorf("%s: %d miss-mark sets over %d micro-traces with loads, want %d", name, st.MissMarkBuilds, withLoads, want)
		}
		if want := uint64(12 * withLoads); st.DepthBuilds != want {
			t.Errorf("%s: %d depth columns over %d micro-traces with loads, want %d", name, st.DepthBuilds, withLoads, want)
		}
	}
}

// TestMemoOrderIndependent fills the shared memo tables in two orders: two
// fresh Compileds over one profile evaluate the same configurations, one in
// input order and one in a seeded permutation, and the results must marshal
// to the same bytes. The goldens compare warm and cold kernels on one
// shared Compiled, so they never fill the tables in two orders.
func TestMemoOrderIndependent(t *testing.T) {
	p := profileFor(t, "mcf", 60_000)
	cfgs := config.DesignSpace()
	wide := &config.Space{
		Widths:     []int{2, 4, 6},
		ROBs:       []int{48, 64, 96, 128, 192, 256},
		L3Bytes:    []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20},
		Clocks:     config.DVFSPoints(),
		Prefetcher: []bool{false, true},
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 400; i++ {
		cfgs = append(cfgs, wide.At(rng.Intn(wide.Size())))
	}
	perm := rng.Perm(len(cfgs))
	for _, opts := range []Options{DefaultOptions(), {MLPMode: mlp.ColdMiss, BranchMissRate: -1}} {
		inOrder, permuted := Compile(p, nil, opts), Compile(p, nil, opts)
		want := make([]*Result, len(cfgs))
		for i, cfg := range cfgs {
			want[i] = evaluate(inOrder, cfg)
		}
		got := make([]*Result, len(cfgs))
		for _, i := range perm {
			got[i] = evaluate(permuted, cfgs[i])
		}
		for i := range cfgs {
			w, err := json.Marshal(want[i])
			if err != nil {
				t.Fatal(err)
			}
			g, err := json.Marshal(got[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w, g) {
				t.Fatalf("opts %+v: config %d (%s) differs with the memo filled in another order:\nin order: %s\npermuted: %s",
					opts, i, cfgs[i].Name, w, g)
			}
		}
	}
}

// TestMemColumnMatchesEvaluate holds the shared memory-column table to the
// one-shot MLP model: for every configuration, each micro-trace's entry in
// the column the kernel read must equal mlp.Evaluate bit for bit, called
// with the parameter set the core model derives from the configuration.
// The configurations are Table 6.3 plus seeded wide-space points whose
// MSHR count and predictor vary, and the Compiled fits two predictors to
// different miss rates, so a column shared across MSHR counts or miss rates
// would be read by a configuration it does not belong to. One goroutine
// computes exactly one column per distinct memory key.
func TestMemColumnMatchesEvaluate(t *testing.T) {
	fits := map[string]func(float64) float64{
		"tournament": func(e float64) float64 { return e / 2 },
		"gshare":     func(e float64) float64 { return 4 * e },
	}
	cfgs := config.DesignSpace()
	space := wideSpace()
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		cfg := space.At(rng.Intn(space.Size()))
		cfg.MSHRs = []int{1, 2, 4, 10}[rng.Intn(4)]
		cfg.Predictor = []string{"tournament", "gshare"}[rng.Intn(2)]
		cfgs = append(cfgs, cfg)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	// key lists what the memory stage reads, apart from the Compiled.
	type key struct {
		rob, mshrs, lat int
		llcLines        int64
		prefetcher      prefetch.Config
		missRate        float64
	}
	for _, name := range []string{"gcc", "milc"} {
		p := profileFor(t, name, 40_000)
		for _, opts := range []Options{
			DefaultOptions(),
			{MLPMode: mlp.ColdMiss, BranchMissRate: -1},
			{MLPMode: mlp.None, BranchMissRate: -1},
			{MLPMode: mlp.StrideMLP, BranchMissRate: 0.3},
		} {
			c := Compile(p, fits, opts)
			b := &Batch{c: c}
			keys := make(map[key]bool)
			for _, cfg := range cfgs {
				evaluateOn(b, cfg)
				mem := cfg.MemConfig()
				col := b.memColumn(cfg, mem)
				missRate := opts.BranchMissRate
				if missRate < 0 {
					missRate = c.missRateFor(cfg.Predictor)
				}
				keys[key{cfg.ROB, cfg.MSHRs, mem.LatencyCycles, cfg.L3.Lines(), cfg.Prefetcher, missRate}] = true
				for mi, micro := range c.micros {
					if micro.Len == 0 {
						if col[mi] != (mlp.MicroMem{}) {
							t.Fatalf("%s, opts %+v, %s: empty micro %d has %+v", name, opts, cfg.Name, mi, col[mi])
						}
						continue
					}
					prm := mlp.Params{
						ROB:        cfg.ROB,
						MSHRs:      cfg.MSHRs,
						MemLatency: mem.LatencyCycles,
						LLCLines:   float64(cfg.L3.Lines()),
						LoadFrac:   p.LoadFrac(),
						Prefetch:   cfg.Prefetcher,
						Mode:       opts.MLPMode,
					}
					if mispred := float64(micro.Branches) * missRate; mispred > 0 {
						prm.MispredictEvery = float64(micro.Len) / mispred
					}
					got, want := col[mi], mlp.Evaluate(p, micro, c.curves.Curve, prm)
					if !same(got.Loads, want.Loads) || !same(got.MissPerLoad, want.MissPerLoad) ||
						!same(got.MLP, want.MLP) || !same(got.RawMLP, want.RawMLP) ||
						!same(got.PrefetchTimely, want.PrefetchTimely) ||
						!same(got.PrefetchPartial, want.PrefetchPartial) ||
						!same(got.PartialSpacing, want.PartialSpacing) {
						t.Fatalf("%s, opts %+v, %s, micro %d: column %+v, mlp.Evaluate %+v", name, opts, cfg.Name, mi, got, want)
					}
				}
			}
			if got := c.Stats().MemColumns; got != uint64(len(keys)) {
				t.Errorf("%s, opts %+v: %d memory columns computed for %d distinct keys", name, opts, got, len(keys))
			}
		}
	}
}

// TestKernelKeyCompleteness holds the stored stages' keys to every field
// they read: on one Compiled and one kernel, Reference() and then each of
// its one-field variants must give what a fresh Compiled gives for the
// variant. A key that left out a field the variant changes would hand the
// variant Reference()'s stale column.
func TestKernelKeyCompleteness(t *testing.T) {
	variants := referenceVariants()
	add := func(name string, edit func(c *config.Config)) {
		c := config.Reference()
		c.Name = "ref-" + name
		edit(c)
		variants = append(variants, c)
	}
	add("name", func(c *config.Config) { c.Name = "renamed" })
	add("voltage", func(c *config.Config) { c.VoltageV = 1.3 })
	add("l1i-latency", func(c *config.Config) { c.L1I.LatencyCycles = 3 })
	add("l1i-name", func(c *config.Config) { c.L1I.Name = "icache" })
	add("l1d-assoc", func(c *config.Config) { c.L1D.Assoc = 4 })
	add("l1d-line", func(c *config.Config) { c.L1D.LineBytes = 32 })
	add("l2-line", func(c *config.Config) { c.L2.LineBytes = 128 })
	add("l3-assoc", func(c *config.Config) { c.L3.Assoc = 8 })
	add("prefetcher-degree", func(c *config.Config) { c.Prefetcher.Enabled, c.Prefetcher.Degree = true, 4 })
	add("ports-fewer", func(c *config.Config) { c.Ports = c.Ports[:len(c.Ports)-1] })
	for _, name := range []string{"mcf", "gcc"} {
		p := profileFor(t, name, 40_000)
		for _, o := range digestOptions[:4] {
			c := Compile(p, digestFits, o.opts)
			b := &Batch{c: c}
			differ := 0
			for _, v := range variants {
				ref := evaluateOn(b, config.Reference())
				got := evaluateOn(b, v)
				want := evaluateOn(&Batch{c: Compile(p, digestFits, o.opts)}, v)
				if resultDigest(got) != resultDigest(want) {
					t.Errorf("%s/%s: %s after Reference() differs from a fresh Compiled", name, o.name, v.Name)
				}
				if resultDigest(ref) != resultDigest(want) {
					differ++
				}
			}
			if differ < len(variants)/2 {
				t.Errorf("%s/%s: only %d of %d variants change the result", name, o.name, differ, len(variants))
			}
		}
	}
}

// TestCoreColumnPastRemainderBound fills a Compiled's remainder list, then
// alternates two remainders past the bound that share width and ROB: each
// computes its own unstored core column, and must give what a fresh
// Compiled gives.
func TestCoreColumnPastRemainderBound(t *testing.T) {
	p := profileFor(t, "gcc", 40_000)
	c := Compile(p, digestFits, DefaultOptions())
	b := &Batch{c: c}
	for i := 0; i < maxRemainders; i++ {
		cfg := config.Reference()
		cfg.FrontEndDepth = 1 + i
		evaluateOn(b, cfg)
	}
	if n := len(*c.rems.Load()); n != maxRemainders {
		t.Fatalf("%d remainders interned, want the bound %d", n, maxRemainders)
	}
	over := make([]*config.Config, 2)
	for i := range over {
		over[i] = config.Reference()
		over[i].FrontEndDepth = 100 * (i + 1)
	}
	want := make([][32]byte, len(over))
	for i, cfg := range over {
		want[i] = resultDigest(evaluateOn(&Batch{c: Compile(p, digestFits, DefaultOptions())}, cfg))
	}
	if want[0] == want[1] {
		t.Fatal("the two over-bound remainders give equal results; the test cannot tell them apart")
	}
	before := c.Stats().CoreColumns
	for rep := 0; rep < 3; rep++ {
		for i, cfg := range over {
			if got := resultDigest(evaluateOn(b, cfg)); got != want[i] {
				t.Fatalf("rep %d: over-bound remainder %d differs from a fresh Compiled", rep, i)
			}
			if got := resultDigest(evaluate(c, cfg)); got != want[i] {
				t.Fatalf("rep %d: pooled evaluation of over-bound remainder %d differs from a fresh Compiled", rep, i)
			}
		}
	}
	if n := len(*c.rems.Load()); n != maxRemainders {
		t.Errorf("%d remainders interned after the over-bound ones, want %d", n, maxRemainders)
	}
	if got := c.Stats().CoreColumns - before; got != 12 {
		t.Errorf("%d core columns computed for 12 over-bound evaluations, want 12", got)
	}
}

// TestCoreColumnsOncePerKey pins the core table's work on one goroutine:
// one core column per distinct (port map, width, ROB) over Table 6.3 and
// over a wide-space sample, and none on a second pass.
func TestCoreColumnsOncePerKey(t *testing.T) {
	p := profileFor(t, "mcf", 40_000)
	space := wideSpace()
	rng := rand.New(rand.NewSource(22))
	sample := make([]*config.Config, 2000)
	keys := make(map[[2]int]bool)
	for i := range sample {
		sample[i] = space.At(rng.Intn(space.Size()))
		// The port map follows the width, so (width, ROB) is the core key.
		keys[[2]int{sample[i].DispatchWidth, sample[i].ROB}] = true
	}
	for _, tc := range []struct {
		name string
		cfgs []*config.Config
		want int
	}{
		{"table 6.3", config.DesignSpace(), 9},
		{"wide sample", sample, len(keys)},
	} {
		c := Compile(p, nil, DefaultOptions())
		for pass := 0; pass < 2; pass++ {
			if _, err := evaluateBatch(context.Background(), c, tc.cfgs); err != nil {
				t.Fatal(err)
			}
			if got := c.Stats().CoreColumns; got != uint64(tc.want) {
				t.Errorf("%s, pass %d: %d core columns computed, want %d", tc.name, pass, got, tc.want)
			}
		}
	}
}

// TestConcurrentInterning evaluates configurations with more distinct
// remainders than the bound from several goroutines on one Compiled, so
// interning, the core and geometry tables and the over-bound path race
// (under -race in CI); every result must equal a fresh Compiled's.
func TestConcurrentInterning(t *testing.T) {
	p := profileFor(t, "gcc", 40_000)
	var cfgs []*config.Config
	for i := 0; i < maxRemainders+4; i++ {
		for _, w := range []int{2, 4} {
			cfg := config.Reference()
			cfg.FrontEndDepth = 1 + i
			cfg.DispatchWidth = w
			cfgs = append(cfgs, cfg)
		}
	}
	want := make([][32]byte, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = resultDigest(evaluate(Compile(p, digestFits, DefaultOptions()), cfg))
	}
	c := Compile(p, digestFits, DefaultOptions())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cfgs {
				i := (k*7 + g*5) % len(cfgs)
				if got := resultDigest(evaluate(c, cfgs[i])); got != want[i] {
					t.Errorf("goroutine %d: config %d differs from a fresh Compiled", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
