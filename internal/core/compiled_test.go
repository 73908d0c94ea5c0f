package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mipp/internal/config"
	"mipp/internal/mlp"
)

// TestGeometryMemoOnePredictPerGeometry pins the miss-ratio memo table:
// evaluating two configurations with the same cache geometry must run
// StatStack once, and the second evaluation must return ratios identical to
// the first (a memo hit returns exactly what a fresh prediction would).
func TestGeometryMemoOnePredictPerGeometry(t *testing.T) {
	m := modelFor(t, "mcf", 60_000)
	c := m.Compile(DefaultOptions())

	// Same geometry, different frequency and ROB — a DVFS/window sweep.
	a := config.Reference()
	b := config.Reference()
	b.Name = "ref-dvfs"
	b.FrequencyGHz = 1.6
	b.VoltageV = 0.95
	b.ROB = 256
	ra := c.Evaluate(a)
	rb := c.Evaluate(b)

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
	c.Evaluate(d)
	if st := c.Stats(); st.StatStackPredicts != 2 {
		t.Errorf("new geometry ran StatStack %d times total, want 2", st.StatStackPredicts)
	}
}

// TestMissRatioMemoIdentical asserts the per-micro miss-ratio memo returns
// identical values on hit and that a same-geometry re-evaluation computes
// no new ratios.
func TestMissRatioMemoIdentical(t *testing.T) {
	m := modelFor(t, "soplex", 60_000)
	c := m.Compile(DefaultOptions())
	cfg := config.Reference()

	first := c.Evaluate(cfg)
	afterFirst := c.Stats()
	second := c.Evaluate(cfg)
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
	m := modelFor(t, "gcc", 60_000)
	for _, opts := range []Options{
		DefaultOptions(),
		{MLPMode: mlp.ColdMiss, BranchMissRate: -1},
		{MLPMode: mlp.StrideMLP, Combined: true, BranchMissRate: -1},
	} {
		c := m.Compile(opts)
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
	m := modelFor(t, "gamess", 60_000)
	c := m.Compile(DefaultOptions())
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
	m := modelFor(t, "mcf", 60_000)
	c := m.Compile(DefaultOptions())
	base := config.Reference()
	first := c.Evaluate(base)
	// 70 distinct L3 line counts (> maxColumnEntries = 64); line-multiple
	// sizes keep the geometry meaningful without needing Validate.
	for i := 0; i < 70; i++ {
		cfg := config.Reference()
		cfg.Name = "flood"
		cfg.L3.SizeBytes = int64(1<<20 + (i+1)*64*1024)
		c.Evaluate(cfg)
	}
	again := c.Evaluate(base)
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
		m := modelFor(t, name, 100_000)
		llcs, robs := make(map[int64]bool), make(map[int]bool)
		for _, cfg := range cfgs {
			llcs[cfg.L3.Lines()] = true
			robs[m.Profile.Opts.ROBIndexFor(cfg.ROB)] = true
		}
		if len(llcs) != 8 || len(robs) != 12 {
			t.Fatalf("%s: configs span %d LLC sizes and %d ROB indices, want 8 and 12", name, len(llcs), len(robs))
		}
		withLoads := 0
		for _, micro := range m.Profile.Micros {
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
		c := m.Compile(DefaultOptions())
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
// fresh Models over one profile evaluate the same configurations, one in
// input order and one in a seeded permutation, and the results must marshal
// to the same bytes. The goldens compare warm and cold kernels on one
// shared Compiled, so they never fill the tables in two orders.
func TestMemoOrderIndependent(t *testing.T) {
	p := modelFor(t, "mcf", 60_000).Profile
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
		inOrder, permuted := New(p, nil).Compile(opts), New(p, nil).Compile(opts)
		want := make([]*Result, len(cfgs))
		for i, cfg := range cfgs {
			want[i] = inOrder.Evaluate(cfg)
		}
		got := make([]*Result, len(cfgs))
		for _, i := range perm {
			got[i] = permuted.Evaluate(cfgs[i])
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

// TestModelEvaluateSharesCompiledKernel asserts the legacy single-config
// path reuses the compiled kernel — the hoisted config-invariant state —
// rather than recompiling per call.
func TestModelEvaluateSharesCompiledKernel(t *testing.T) {
	m := modelFor(t, "gobmk", 60_000)
	if m.Compile(DefaultOptions()) != m.Compile(DefaultOptions()) {
		t.Fatal("Compile(opts) not cached per option set")
	}
	cfg := config.Reference()
	m.Evaluate(cfg, DefaultOptions())
	m.Evaluate(cfg, DefaultOptions())
	st := m.Compile(DefaultOptions()).Stats()
	if st.StatStackPredicts != 1 {
		t.Errorf("legacy Evaluate ran StatStack %d times for one geometry, want 1", st.StatStackPredicts)
	}
	// A different option set compiles its own kernel.
	other := DefaultOptions()
	other.NoLLCChain = true
	if m.Compile(other) == m.Compile(DefaultOptions()) {
		t.Fatal("distinct option sets share a kernel")
	}
}
