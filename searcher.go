package mipp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mipp/api"
	"mipp/search"
)

// NewSearchEvaluator bridges a compiled Predictor into the search
// subsystem: each strategy generation arrives as one configuration batch
// and is answered by the batched phase-2 kernel (PredictBatchInto) fanned
// out in contiguous chunks over the shared worker pool — the same machinery
// Sweep and the Engine run on. workers caps the pool (0 = GOMAXPROCS).
//
// The evaluator owns one BatchResult and one metrics slice reused across
// generations, so steady-state search evaluation allocates nothing per
// generation; per the search.Evaluator contract the returned slice is valid
// only until the next call, and the evaluator must not be called
// concurrently (the Runner drives it serially).
func NewSearchEvaluator(pd *Predictor, workers int) search.Evaluator {
	br := &BatchResult{}
	pds, brs := []*Predictor{pd}, []*BatchResult{br}
	var out []search.Metrics
	return func(ctx context.Context, configs []*Config) ([]search.Metrics, error) {
		if pd == nil {
			return nil, fmt.Errorf("mipp: search evaluator: nil predictor")
		}
		sweepInto(ctx, pds, configs, workers, brs)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := joinFailures(configs, br); err != nil {
			return nil, err
		}
		out = growSlice(out, len(configs))
		for i := range configs {
			if !br.Ok(i) {
				return nil, fmt.Errorf("mipp: search evaluator: missing result for config %d", i)
			}
			r := br.fill(i)
			out[i] = search.Metrics{
				TimeSeconds:  r.TimeSeconds(),
				Watts:        r.Watts(),
				EnergyJoules: r.EnergyJoules(),
				EDP:          r.EDP(),
				ED2P:         r.ED2P(),
			}
		}
		return out, nil
	}
}

// Searcher is the asynchronous search surface of the service: submit a
// design-space search job, poll it, cancel it. Like Evaluator it has two
// symmetric implementations — *Engine runs jobs in-process against its
// predictor cache, and mipp/client.Client forwards to a mippd daemon — and
// because a job's report depends only on the request (seed included), the
// two produce byte-identical reports.
type Searcher interface {
	// SubmitSearch admits a search job and returns its handle immediately.
	SubmitSearch(ctx context.Context, req *api.SearchRequest) (*api.SearchJobResponse, error)
	// SearchJob returns a job snapshot (progress counters while running,
	// the report once done).
	SearchJob(ctx context.Context, id string) (*api.SearchJobResponse, error)
	// CancelSearch stops a running job and returns its final snapshot.
	CancelSearch(ctx context.Context, id string) (*api.SearchJobResponse, error)
}

// ErrUnknownJob reports a poll or cancel against a job ID that was never
// issued (HTTP 404).
var ErrUnknownJob = errors.New("mipp: unknown search job")

// WaitSearch polls a Searcher until the job reaches a terminal state,
// sleeping poll between snapshots (a non-positive poll defaults to 50ms).
// It works identically against a local Engine and a remote client.
func WaitSearch(ctx context.Context, s Searcher, id string, poll time.Duration) (*api.SearchJobResponse, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		resp, err := s.SearchJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if resp.Job.Terminal() {
			return resp, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}
