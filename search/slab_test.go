package search

// The pooled memo slab: a run returns its slab with every entry it
// recorded cleared, so the next run on a same-class space starts from an
// all-zero slab whatever ran before it.

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"

	"mipp/arch"
)

// syntheticEval scores a configuration from its fields alone: cheap,
// deterministic and positional, with enough spread for the strategies to
// move.
func syntheticEval(_ context.Context, cfgs []*arch.Config) ([]Metrics, error) {
	out := make([]Metrics, len(cfgs))
	for i, c := range cfgs {
		t := 1/float64(c.DispatchWidth) + 64/float64(c.ROB) + float64(c.L3.SizeBytes>>20)/64 + 1/c.FrequencyGHz
		w := float64(c.DispatchWidth)*c.FrequencyGHz + float64(c.ROB)/64
		out[i] = Metrics{TimeSeconds: t, Watts: w, EnergyJoules: t * w, EDP: t * t * w, ED2P: t * t * t * w}
	}
	return out, nil
}

// slabRuns are the interleaved runs: each strategy on two spaces of
// different size classes.
func slabRuns() []struct {
	space *arch.Space
	st    Strategy
	opts  Options
} {
	small, large := arch.TableSpace(), &arch.Space{
		Widths:  []int{1, 2, 3, 4, 5, 6},
		ROBs:    []int{16, 32, 64, 128, 256, 512},
		L2Bytes: []int64{128 << 10, 256 << 10, 512 << 10},
		L3Bytes: []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20},
		Clocks:  arch.DVFSPoints(),
	}
	type run = struct {
		space *arch.Space
		st    Strategy
		opts  Options
	}
	var runs []run
	for seed := int64(1); seed <= 3; seed++ {
		for _, sp := range []*arch.Space{small, large} {
			opts := Options{Seed: seed, Budget: 200, Objective: ObjectiveED2P, Constraints: Constraints{MaxWatts: 20}}
			runs = append(runs,
				run{sp, Random{Samples: 150}, opts},
				run{sp, HillClimb{Restarts: 3}, opts},
				run{sp, Genetic{Population: 16, Generations: 6}, opts})
		}
	}
	return runs
}

func reportJSON(t *testing.T, sp *arch.Space, st Strategy, opts Options) string {
	t.Helper()
	rep, err := Run(context.Background(), syntheticEval, sp, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPooledSlabReportsMatchFresh runs random, hill and genetic searches on
// two spaces, interleaved so each run takes a slab the previous runs
// returned, and compares every report with the same run on a fresh slab
// (the pools emptied by two collections first).
func TestPooledSlabReportsMatchFresh(t *testing.T) {
	runs := slabRuns()
	fresh := make([]string, len(runs))
	for i, r := range runs {
		runtime.GC()
		runtime.GC()
		fresh[i] = reportJSON(t, r.space, r.st, r.opts)
	}
	for rep := 0; rep < 2; rep++ {
		for i, r := range runs {
			if got := reportJSON(t, r.space, r.st, r.opts); got != fresh[i] {
				t.Fatalf("pass %d, run %d (%s on %d points): pooled-slab report differs from the fresh-slab one",
					rep, i, r.st.Name(), r.space.Size())
			}
		}
	}
}

// TestReleasedSlabIsClean runs a cancelled search, a budget-refused one
// and an evaluator failure on a runner, releases it, and checks its slab
// holds no entry.
func TestReleasedSlabIsClean(t *testing.T) {
	space := arch.TableSpace()
	failing := func(ctx context.Context, cfgs []*arch.Config) ([]Metrics, error) {
		return nil, errors.New("evaluator down")
	}
	for _, tc := range []struct {
		name string
		ev   Evaluator
		run  func(r *Runner) error
	}{
		{"cancelled", syntheticEval, func(r *Runner) error {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := r.Evaluate(ctx, []int{3, 5, 7})
			cancel()
			if err != nil {
				return err
			}
			_, err = r.Evaluate(ctx, []int{9, 11, 3})
			return err
		}},
		{"budget-refused", syntheticEval, func(r *Runner) error {
			if _, err := r.Evaluate(context.Background(), []int{1, 2}); err != nil {
				return err
			}
			_, err := r.Evaluate(context.Background(), []int{4, 6, 8, 10})
			return err
		}},
		{"evaluator-failed", failing, func(r *Runner) error {
			_, err := r.Evaluate(context.Background(), []int{12, 13})
			return err
		}},
	} {
		r := newRunner(space, tc.ev, Options{Seed: 1, Budget: 4})
		if err := tc.run(r); err == nil {
			t.Fatalf("%s: run did not fail", tc.name)
		}
		slab := r.seenSlab[:cap(r.seenSlab)]
		b := r.jobBuffers
		r.release()
		for i, v := range slab {
			if v != 0 {
				t.Fatalf("%s: released slab holds %d at index %d", tc.name, v, i)
			}
		}
		for i, e := range b.evals[:cap(b.evals)] {
			if e != (Eval{}) {
				t.Fatalf("%s: released eval log holds %+v at %d", tc.name, e, i)
			}
		}
		for i, e := range b.out[:cap(b.out)] {
			if e != (Eval{}) {
				t.Fatalf("%s: released out scratch holds %+v at %d", tc.name, e, i)
			}
		}
		for i := range b.slab[:cap(b.slab)] {
			if c := &b.slab[:cap(b.slab)][i]; c.Name != "" || c.Ports != nil {
				t.Fatalf("%s: released config slab holds %q at %d", tc.name, c.Name, i)
			}
		}
	}
}

// TestPooledBuffersDoNotLeak keeps one run's report and streamed updates
// with a deep copy of each, runs more searches on the pooled buffers after
// it, sequentially and concurrently, and checks nothing kept has changed.
func TestPooledBuffersDoNotLeak(t *testing.T) {
	runs := slabRuns()
	keep := runs[len(runs)-1] // a genetic run on the larger space
	var updates []Update
	opts := keep.opts
	opts.OnUpdate = func(u Update) { updates = append(updates, u) }
	rep, err := Run(context.Background(), syntheticEval, keep.space, keep.st, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Report  *Report
		Updates []Update
	}{rep, updates})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		reportJSON(t, r.space, r.st, r.opts)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range runs[w:] {
				if _, err := Run(context.Background(), syntheticEval, r.space, r.st, r.opts); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := json.Marshal(struct {
		Report  *Report
		Updates []Update
	}{rep, updates})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("a kept report or update changed while later searches ran:\n got  %.300s\n want %.300s", got, want)
	}
}
