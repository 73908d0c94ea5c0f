package search

// The pooled memo slab: a run returns its slab with every entry it
// recorded cleared, so the next run on a same-class space starts from an
// all-zero slab whatever ran before it.

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
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
		r.release()
		for i, v := range slab {
			if v != 0 {
				t.Fatalf("%s: released slab holds %d at index %d", tc.name, v, i)
			}
		}
	}
}
