package mipp_test

// Tests for the concurrent Sweep: deterministic output under any worker
// count, prompt context cancellation, error propagation and the Pareto
// helpers.

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mipp"
	"mipp/arch"
)

func sweepPredictor(t *testing.T) *mipp.Predictor {
	t.Helper()
	pred, err := mipp.NewPredictor(testProfile(t, "soplex"))
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	pred := sweepPredictor(t)
	configs := arch.DesignSpaceSample(3) // 81 configs
	if len(configs) < 64 {
		t.Fatalf("sample too small: %d configs, want >= 64", len(configs))
	}

	encode := func(results []*mipp.Result) []byte {
		data, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	serial, err := mipp.Sweep(context.Background(), pred, configs, mipp.WithWorkers(1))
	if err != nil {
		t.Fatalf("Sweep(1 worker): %v", err)
	}
	if len(serial) != len(configs) {
		t.Fatalf("Sweep returned %d results, want %d", len(serial), len(configs))
	}
	for i, res := range serial {
		if res.Config != configs[i].Name {
			t.Fatalf("results[%d] = %q, want %q (ordering broken)", i, res.Config, configs[i].Name)
		}
	}
	want := encode(serial)

	for _, workers := range []int{2, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)} {
		parallel, err := mipp.Sweep(context.Background(), pred, configs, mipp.WithWorkers(workers))
		if err != nil {
			t.Fatalf("Sweep(%d workers): %v", workers, err)
		}
		if got := encode(parallel); string(got) != string(want) {
			t.Errorf("Sweep with %d workers is not byte-identical to 1 worker", workers)
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	pred := sweepPredictor(t)
	configs := arch.DesignSpace() // all 243

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the sweep starts
	t0 := time.Now()
	results, err := mipp.Sweep(ctx, pred, configs, mipp.WithWorkers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Error("cancelled Sweep returned results")
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Errorf("cancelled Sweep took %v, want prompt return", elapsed)
	}

	// Mid-flight cancellation must also come back promptly. The sweep
	// pauses in its third context poll, on one worker after its first
	// chunk is evaluated, until the test has cancelled: the cancel lands
	// while the sweep runs however fast the kernel is.
	base, cancel2 := context.WithCancel(context.Background())
	ctx2 := &pausingCtx{Context: base, at: 3, paused: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := mipp.Sweep(ctx2, pred, configs, mipp.WithWorkers(1))
		done <- err
	}()
	select {
	case <-ctx2.paused:
	case err := <-done:
		t.Fatalf("Sweep returned %v before its third context poll", err)
	case <-time.After(30 * time.Second):
		t.Fatal("Sweep never reached its third context poll")
	}
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Sweep did not return after mid-flight cancellation")
	}
}

// pausingCtx blocks its at-th Err poll until the context is cancelled, so
// a test can cancel at a known point inside the sweep.
type pausingCtx struct {
	context.Context
	polls  atomic.Int64
	at     int64
	paused chan struct{}
}

func (c *pausingCtx) Err() error {
	if c.polls.Add(1) == c.at {
		close(c.paused)
		<-c.Done()
	}
	return c.Context.Err()
}

// TestSweepCancellationBatchGranularity asserts Sweep observes cancellation
// between configs inside a batch — not only at work-item boundaries: a
// context that cancels mid-chunk (well before the single worker's first
// ~60-config chunk ends) must still abort the sweep with ctx.Err(). The
// poll-counting context lives in batch_test.go; the batch kernel polls it
// once per configuration.
func TestSweepCancellationBatchGranularity(t *testing.T) {
	pred := sweepPredictor(t)
	configs := arch.DesignSpace() // 243 configs; 1 worker → ~61-config chunks
	ctx := &pollCountCtx{Context: context.Background(), after: 5}
	results, err := mipp.Sweep(ctx, pred, configs, mipp.WithWorkers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch cancel: err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Error("cancelled Sweep returned results")
	}
	if polls := ctx.polls.Load(); polls > 30 {
		t.Errorf("cancellation observed only after %d polls; batch kernel should poll per config and stop promptly", polls)
	}
}

func TestSweepErrorPropagation(t *testing.T) {
	pred := sweepPredictor(t)
	configs := arch.DesignSpaceSample(30)
	bad := arch.Reference()
	bad.Name = "broken"
	bad.IQ = 0
	configs = append(configs, bad)
	if _, err := mipp.Sweep(context.Background(), pred, configs); err == nil {
		t.Error("Sweep with an invalid config did not error")
	}

	withNil := []*arch.Config{arch.Reference(), nil, arch.Reference()}
	if _, err := mipp.Sweep(context.Background(), pred, withNil); err == nil {
		t.Error("Sweep with a nil config did not error")
	}

	empty, err := mipp.Sweep(context.Background(), pred, nil)
	if err != nil || empty != nil {
		t.Errorf("Sweep over no configs = (%v, %v), want (nil, nil)", empty, err)
	}
}

// Sweep must report every failed config, not just the first, with index and
// name context on each.
func TestSweepAggregatesAllErrors(t *testing.T) {
	pred := sweepPredictor(t)
	badROB := arch.Reference()
	badROB.Name = "bad-rob"
	badROB.ROB = 0
	badIQ := arch.Reference()
	badIQ.Name = "bad-iq"
	badIQ.IQ = 0
	configs := []*arch.Config{arch.Reference(), badROB, arch.Reference(), badIQ}

	_, err := mipp.Sweep(context.Background(), pred, configs)
	if err == nil {
		t.Fatal("Sweep with two invalid configs did not error")
	}
	msg := err.Error()
	for _, want := range []string{"config 1 (bad-rob)", "config 3 (bad-iq)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregated error %q missing %q", msg, want)
		}
	}
}

func TestSweepParetoHelpers(t *testing.T) {
	pred := sweepPredictor(t)
	configs := arch.DesignSpaceSample(13)
	results, err := mipp.Sweep(context.Background(), pred, configs)
	if err != nil {
		t.Fatal(err)
	}
	points := mipp.Points(results)
	if len(points) != len(configs) {
		t.Fatalf("Points: %d, want %d", len(points), len(configs))
	}

	front := mipp.ParetoFront(points)
	if len(front) == 0 || len(front) > len(points) {
		t.Fatalf("ParetoFront size %d out of range", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].Time < front[i-1].Time || front[i].Power > front[i-1].Power {
			t.Errorf("front not monotone at %d: %+v -> %+v", i, front[i-1], front[i])
		}
	}

	if best, ok := mipp.BestUnderPowerCap(points, 1e9); !ok {
		t.Error("BestUnderPowerCap found nothing under an unlimited cap")
	} else {
		for _, p := range points {
			if p.Time < best.Time {
				t.Errorf("BestUnderPowerCap missed faster point %+v", p)
				break
			}
		}
	}
	if _, ok := mipp.BestUnderPowerCap(points, 0); ok {
		t.Error("BestUnderPowerCap found a point under a 0 W cap")
	}
	if _, ok := mipp.BestByED2P(points); !ok {
		t.Error("BestByED2P found nothing")
	}

	// Perfect prediction scores perfectly against itself.
	m := mipp.CompareFronts(points, points)
	if m.Sensitivity != 1 || m.Accuracy != 1 || m.HVR != 1 {
		t.Errorf("self-comparison metrics = %+v, want all 1", m)
	}
}
