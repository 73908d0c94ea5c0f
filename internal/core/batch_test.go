package core

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"mipp/internal/config"
	"mipp/internal/mlp"
)

// coldEvaluate evaluates cfg on a fresh Compiled for c's profile, fits and
// options — empty memo tables and a kernel with no DVFS key — so it shares
// no stored column with the kernel under test.
func coldEvaluate(c *Compiled, cfg *config.Config) *Result {
	return evaluateOn(&Batch{c: Compile(c.profile, c.fits, c.opts)}, cfg)
}

// evaluateOn evaluates cfg on kernel b into a fresh Result.
func evaluateOn(b *Batch, cfg *config.Config) *Result {
	res := &Result{MicroCPI: make([]float64, 0, len(b.c.micros))}
	b.evaluateInto(cfg, res)
	return res
}

// evaluate evaluates cfg as a batch of one on a kernel from c's pool, as
// EvaluateRangeInto does.
func evaluate(c *Compiled, cfg *config.Config) *Result {
	b := c.batches.Get().(*Batch)
	defer c.putBatch(b)
	return evaluateOn(b, cfg)
}

// rowResult materializes slot i of br as a standalone *Result.
func rowResult(br *BatchResult, i int) *Result {
	res := *br.Row(i)
	res.MicroCPI = slices.Clone(res.MicroCPI)
	return &res
}

// evaluateBatch runs cfgs through the batched entry point and materializes
// one *Result per evaluated slot (nil elsewhere).
func evaluateBatch(ctx context.Context, c *Compiled, cfgs []*config.Config) ([]*Result, error) {
	var br BatchResult
	c.PrepareBatch(&br, len(cfgs))
	err := c.EvaluateRangeInto(ctx, cfgs, &br, 0)
	out := make([]*Result, len(cfgs))
	for i := range out {
		if br.Valid(i) {
			out[i] = rowResult(&br, i)
		}
	}
	return out, err
}

// TestEvaluateBatchIntoGolden is the byte-identity guarantee of the
// batched kernel: over the full 243-point reference design space
// and the option variants, the batched rows, a batch of one on a pooled
// kernel and a cold kernel per configuration marshal to exactly the same
// JSON. The BatchResult is reused across option variants (distinct compiled
// kernels), exercising the grown-once-reused-forever buffer contract.
func TestEvaluateBatchIntoGolden(t *testing.T) {
	p := profileFor(t, "mcf", 60_000)
	configs := config.DesignSpace()
	if len(configs) != 243 {
		t.Fatalf("design space has %d configs, want 243", len(configs))
	}
	var br BatchResult
	for _, opts := range []Options{
		DefaultOptions(),
		{MLPMode: mlp.ColdMiss, BranchMissRate: -1},
		{MLPMode: mlp.StrideMLP, Combined: true, BranchMissRate: -1},
		{MLPMode: mlp.StrideMLP, NoLLCChain: true, NoBusQueue: true, BranchMissRate: -1},
	} {
		c := Compile(p, nil, opts)
		c.PrepareBatch(&br, len(configs))
		if err := c.EvaluateRangeInto(context.Background(), configs, &br, 0); err != nil {
			t.Fatal(err)
		}
		for i, cfg := range configs {
			if !br.Valid(i) {
				t.Fatalf("opts %+v: slot %d (%s) invalid", opts, i, cfg.Name)
			}
			want, err := json.Marshal(coldEvaluate(c, cfg))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rowResult(&br, i))
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(got) {
				t.Fatalf("opts %+v: batched slot %d (%s) differs from a cold kernel:\nbatch: %s\ncold:  %s",
					opts, i, cfg.Name, got, want)
			}
			single, err := json.Marshal(evaluate(c, cfg))
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(single) {
				t.Fatalf("opts %+v: pooled evaluation of %d (%s) differs from a cold kernel", opts, i, cfg.Name)
			}
		}
	}
}

// TestDVFSFastPathGolden pins the DVFS fast path: over a clock-only sweep a
// warm Batch must (a) never run the clock-invariant stage again and (b)
// stay deeply equal to a cold kernel, including across a mid-sweep key
// change (which must invalidate the cached per-clock columns) and back.
func TestDVFSFastPathGolden(t *testing.T) {
	c := Compile(profileFor(t, "soplex", 60_000), nil, DefaultOptions())

	base := config.Reference()
	var clockOnly []*config.Config
	for rep := 0; rep < 4; rep++ {
		for _, p := range config.DVFSPoints() {
			clockOnly = append(clockOnly, config.WithDVFS(base, p))
		}
	}

	b := &Batch{c: c}
	evaluateOn(b, clockOnly[0]) // prime the invariants for the sweep's key
	before := b.invariantRuns
	fast := make([]*Result, len(clockOnly))
	for i, cfg := range clockOnly {
		fast[i] = evaluateOn(b, cfg)
	}
	if runs := b.invariantRuns - before; runs != 0 {
		t.Errorf("clock-only sweep ran the invariant stage %d times, want 0", runs)
	}
	for i, cfg := range clockOnly {
		if cold := coldEvaluate(c, cfg); !reflect.DeepEqual(cold, fast[i]) {
			t.Fatalf("fast path result %d (%s) differs from a cold kernel", i, cfg.Name)
		}
	}

	// A key change mid-stream (different width → different ports and
	// dispatch) must leave the kernel correct when the sweep returns to the
	// original key: the cached clock columns belong to the old invariants.
	wide := config.DesignSpace()[81] // a width-4 point vs whatever ran before
	mixed := []*config.Config{clockOnly[0], wide, clockOnly[1], clockOnly[2]}
	for i, cfg := range mixed {
		got := evaluateOn(b, cfg)
		if want := coldEvaluate(c, cfg); !reflect.DeepEqual(want, got) {
			t.Fatalf("mixed sweep result %d (%s) differs from a cold kernel", i, cfg.Name)
		}
	}
}

// TestEvaluateRangeIntoNilAndOffset pins EvaluateRangeInto's contract: rows
// land at their offset, nil configurations leave their slot invalid, and
// valid slots match a cold kernel.
func TestEvaluateRangeIntoNilAndOffset(t *testing.T) {
	c := Compile(profileFor(t, "gamess", 60_000), nil, DefaultOptions())
	configs := config.DesignSpace()[:9]
	configs[4] = nil

	var br BatchResult
	c.PrepareBatch(&br, len(configs))
	if err := c.EvaluateRangeInto(context.Background(), configs[:5], &br, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.EvaluateRangeInto(context.Background(), configs[5:], &br, 5); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range configs {
		if cfg == nil {
			if br.Valid(i) {
				t.Fatalf("nil config slot %d marked valid", i)
			}
			continue
		}
		if !br.Valid(i) {
			t.Fatalf("slot %d (%s) invalid", i, cfg.Name)
		}
		if want := coldEvaluate(c, cfg); !reflect.DeepEqual(want, rowResult(&br, i)) {
			t.Fatalf("slot %d (%s) differs from a cold kernel", i, cfg.Name)
		}
	}
}

// TestBatchResultReleaseClearsEveryWrittenRow pins Release's contract: it
// drops every name written since the last Release, even when a smaller
// PrepareBatch shrank the batch in between.
func TestBatchResultReleaseClearsEveryWrittenRow(t *testing.T) {
	c := Compile(profileFor(t, "gamess", 60_000), nil, DefaultOptions())
	configs := config.DesignSpace()[:20]
	var br BatchResult
	c.PrepareBatch(&br, len(configs))
	if err := c.EvaluateRangeInto(context.Background(), configs, &br, 0); err != nil {
		t.Fatal(err)
	}
	c.PrepareBatch(&br, 5)
	br.Release()
	for i, row := range br.rows[:cap(br.rows)] {
		if row.Config != "" {
			t.Fatalf("row %d still pins %q after Release", i, row.Config)
		}
	}
}

// TestPutBatchTrimInvalidatesKey pins the pool's put path: when the trim
// drops an oversized pre-DRAM buffer, the kernel must forget the DVFS key
// that buffer belonged to, or the next same-key evaluation would finish
// over an empty buffer.
func TestPutBatchTrimInvalidatesKey(t *testing.T) {
	c := Compile(profileFor(t, "gamess", 60_000), nil, DefaultOptions())
	cfg := config.Reference()
	b := &Batch{c: c}
	want := evaluateOn(b, cfg)
	b.scr.pre = append(make([]float64, 0, pooledCapLimit+1), b.scr.pre...)
	c.putBatch(b)
	if got := evaluateOn(b, cfg); !reflect.DeepEqual(want, got) {
		t.Fatal("evaluation after a trimming put differs from the one before it")
	}
}
