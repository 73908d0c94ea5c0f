package search

// Differential test for the runner's Pareto front against a
// straightforward sort-and-sweep reference, over adversarial randomized
// inputs (duplicated times, duplicated points, infeasible mixes, quantized
// values so exact float ties actually occur, space indices shuffled against
// memo positions).

import (
	"math/rand"
	"slices"
	"testing"
)

// referenceFront is the pre-staircase implementation: sort the feasible
// subset by (time, power, index) and sweep keeping strict power improvers.
func referenceFront(evals []Eval) []Eval {
	feasible := make([]Eval, 0, len(evals))
	for _, e := range evals {
		if e.Feasible {
			feasible = append(feasible, e)
		}
	}
	for i := 1; i < len(feasible); i++ {
		for j := i; j > 0; j-- {
			a, b := feasible[j-1], feasible[j]
			if a.TimeSeconds < b.TimeSeconds ||
				(a.TimeSeconds == b.TimeSeconds && a.Watts < b.Watts) ||
				(a.TimeSeconds == b.TimeSeconds && a.Watts == b.Watts && a.Index < b.Index) {
				break
			}
			feasible[j-1], feasible[j] = feasible[j], feasible[j-1]
		}
	}
	front := make([]Eval, 0, 16)
	bestPower := 0.0
	for i, e := range feasible {
		if i == 0 || e.Watts < bestPower {
			front = append(front, e)
			bestPower = e.Watts
		}
	}
	return front
}

// TestParetoFrontMatchesReference folds each trial's evals into a runner's
// front twice: all at once, as a report without an OnUpdate sink does, and
// in random-sized chunks, as the runner does once per generation. After
// every chunk the front must equal the reference over that prefix, fold
// must report a change exactly when the front differs from the one before,
// and no front the runner handed out may change afterwards. Each eval's
// space index is a shuffled memo position, so a front that broke an exact
// tie by memo position instead of by index would differ from the reference.
func TestParetoFrontMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(120)
		evals := make([]Eval, n)
		index := rng.Perm(n)
		for i := range evals {
			evals[i] = Eval{
				// Quantized so ties in one or both objectives are common.
				Index:       index[i],
				TimeSeconds: float64(rng.Intn(8)) * 0.25,
				Watts:       float64(rng.Intn(8)) * 0.5,
				Feasible:    rng.Intn(4) != 0,
			}
		}
		whole := &Runner{jobBuffers: &jobBuffers{evals: evals}}
		whole.fold()
		if got, want := whole.frontEvals(), referenceFront(evals); !slices.Equal(got, want) {
			t.Fatalf("trial %d: front\n%+v\nwant\n%+v", trial, got, want)
		}

		chunks := rand.New(rand.NewSource(int64(trial)))
		r := &Runner{jobBuffers: new(jobBuffers)}
		var published, copies [][]Eval
		prev := []Eval{}
		for hi := 0; hi < n; {
			hi = min(n, hi+1+chunks.Intn(24))
			r.evals = evals[:hi]
			changed := r.fold()
			got, want := r.frontEvals(), referenceFront(evals[:hi])
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, prefix %d: front\n%+v\nwant\n%+v", trial, hi, got, want)
			}
			if changed == slices.Equal(got, prev) {
				t.Fatalf("trial %d, prefix %d: fold reported changed=%v, front went from %+v to %+v",
					trial, hi, changed, prev, got)
			}
			if changed {
				published = append(published, got)
				copies = append(copies, slices.Clone(got))
			}
			prev = got
		}
		for i := range published {
			if !slices.Equal(published[i], copies[i]) {
				t.Fatalf("trial %d: published front %d changed after later folds", trial, i)
			}
		}
	}
}
