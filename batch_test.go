package mipp_test

// Tests for the batched phase-2 evaluation path: PredictBatch must be
// byte-identical to N single Predict calls over the stock design space,
// preserve per-item errors, and observe cancellation between configs inside
// a batch (not just at work-item boundaries).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mipp"
	"mipp/arch"
	"mipp/internal/core"
	"mipp/internal/profiler"
	"mipp/internal/workload"
)

// TestPredictBatchEquivalence is the acceptance guarantee of the compile →
// evaluate split: across the 81-config stock design-space sample, the
// batched kernel's results marshal to exactly the bytes of N sequential
// Predict calls — while concurrent Predicts race the same memo tables (run
// under -race in CI).
func TestPredictBatchEquivalence(t *testing.T) {
	pd, err := mipp.NewPredictor(testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	configs := arch.DesignSpaceSample(3)
	if len(configs) != 81 {
		t.Fatalf("stock sample has %d configs, want 81", len(configs))
	}

	// Race the memo tables from a second goroutine while the batch runs.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, cfg := range configs[:20] {
			if _, err := pd.Predict(cfg); err != nil {
				t.Errorf("concurrent Predict: %v", err)
				return
			}
		}
	}()
	batch, errs, err := pd.PredictBatch(context.Background(), configs)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("errs[%d] (%s): %v", i, configs[i].Name, e)
		}
	}

	for i, cfg := range configs {
		single, err := pd.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(single)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(batch[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("config %d (%s): PredictBatch JSON differs from Predict:\nbatch:  %s\nsingle: %s",
				i, cfg.Name, got, want)
		}
	}
}

// TestPredictBatchPerItemErrors asserts a bad configuration skips its slot
// without aborting the batch.
func TestPredictBatchPerItemErrors(t *testing.T) {
	pd, err := mipp.NewPredictor(testProfile(t, "bzip2"))
	if err != nil {
		t.Fatal(err)
	}
	bad := arch.Reference()
	bad.Name = "bad-rob"
	bad.ROB = 0
	configs := []*arch.Config{arch.Reference(), bad, nil, arch.LowPower()}
	results, errs, err := pd.PredictBatch(context.Background(), configs)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 3} {
		if errs[i] != nil || results[i] == nil {
			t.Errorf("item %d: result=%v err=%v, want success", i, results[i], errs[i])
		}
	}
	for _, i := range []int{1, 2} {
		if errs[i] == nil || results[i] != nil {
			t.Errorf("item %d: result=%v err=%v, want per-item error", i, results[i], errs[i])
		}
	}
}

// TestPredictLimiter pins the façade's Figure 3.6 counts: Result.Limiter
// counts every micro-trace of the profile once, and equals the kernel row's
// counts for the same configuration.
func TestPredictLimiter(t *testing.T) {
	raw := profiler.Run(workload.MustGenerate("gcc", 100_000, 0), profiler.Options{})
	pd, err := mipp.NewPredictor(mipp.WrapProfile(raw))
	if err != nil {
		t.Fatal(err)
	}
	c := core.Compile(raw, nil, core.DefaultOptions())
	for _, cfg := range arch.DesignSpaceSample(13) {
		res, err := pd.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, n := range res.Limiter {
			sum += n
		}
		if sum != float64(len(raw.Micros)) {
			t.Errorf("%s: limiter counts %v sum to %v, want the %d micro-traces", cfg.Name, res.Limiter, sum, len(raw.Micros))
		}
		var br core.BatchResult
		c.PrepareBatch(&br, 1)
		if err := c.EvaluateRangeInto(context.Background(), []*arch.Config{cfg}, &br, 0); err != nil {
			t.Fatal(err)
		}
		if want := br.Row(0).Limiter; res.Limiter != want {
			t.Errorf("%s: limiter %v, kernel row %v", cfg.Name, res.Limiter, want)
		}
	}
}

// TestPredictBatchIntoReuseAcrossGenerations drives one caller-owned
// BatchResult through three consecutive generations of different sizes —
// the search Runner's steady-state shape — asserting every generation's
// materialized results stay byte-identical to fresh Predict calls, and that
// results published from one generation survive the next generation's
// buffer reuse untouched (the aliasing canary: re-running the batch mutates
// the reused buffers after publish).
func TestPredictBatchIntoReuseAcrossGenerations(t *testing.T) {
	pd, err := mipp.NewPredictor(testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	space := arch.DesignSpaceSample(3)
	generations := [][]*arch.Config{space[:40], space[20:70], space}

	var br mipp.BatchResult
	type snapshot struct {
		cfg       *arch.Config
		published *mipp.Result
		want      []byte
	}
	var retained []snapshot
	for g, configs := range generations {
		if err := pd.PredictBatchInto(context.Background(), configs, &br); err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		// The canary check: anything published in an earlier generation
		// must still marshal to the bytes captured at publish time, even
		// though the buffers it came from have since been overwritten.
		for _, s := range retained {
			got, err := json.Marshal(s.published)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s.want, got) {
				t.Fatalf("generation %d mutated a result published earlier (%s):\nnow:  %s\nthen: %s",
					g, s.cfg.Name, got, s.want)
			}
		}
		for i, cfg := range configs {
			if !br.Ok(i) {
				t.Fatalf("generation %d slot %d (%s): err=%v", g, i, cfg.Name, br.Err(i))
			}
			single, err := pd.Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(single)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(br.Result(i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("generation %d slot %d (%s) differs from Predict:\nbatch:  %s\nsingle: %s",
					g, i, cfg.Name, got, want)
			}
		}
		// Publish a few results from this generation for the next one's
		// canary check.
		for _, i := range []int{0, len(configs) / 2, len(configs) - 1} {
			r := br.Result(i)
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			retained = append(retained, snapshot{cfg: configs[i], published: r, want: b})
		}
	}
}

// pollCountCtx is a context whose Err flips to Canceled after a fixed
// number of polls, making "cancelled mid-batch" deterministic: the batch
// kernel polls once every core.CtxCheckStride configurations.
type pollCountCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *pollCountCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestPredictBatchCancelledMidBatch asserts the batch kernel observes
// cancellation inside a batch, not just at work-item boundaries. The
// per-config ctx.Err() is amortized to one poll every core.CtxCheckStride
// configurations (it is a synchronized load), so cancellation arriving
// after the first poll stops the batch at the stride boundary: exactly the
// first CtxCheckStride slots are filled.
func TestPredictBatchCancelledMidBatch(t *testing.T) {
	pd, err := mipp.NewPredictor(testProfile(t, "soplex"))
	if err != nil {
		t.Fatal(err)
	}
	configs := arch.DesignSpaceSample(3)
	if len(configs) <= core.CtxCheckStride {
		t.Fatalf("sample has %d configs, need > %d to observe a mid-batch stride poll",
			len(configs), core.CtxCheckStride)
	}
	// The poll at config 0 passes; the next, at config CtxCheckStride,
	// observes the cancellation.
	ctx := &pollCountCtx{Context: context.Background(), after: 1}
	results, _, err := pd.PredictBatch(ctx, configs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if (i < core.CtxCheckStride) != (r != nil) {
			t.Fatalf("results[%d] = %v: cancellation at the second poll should fill exactly the first %d slots",
				i, r, core.CtxCheckStride)
		}
	}
}
