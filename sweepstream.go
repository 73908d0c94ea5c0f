package mipp

import (
	"context"
	"fmt"

	"mipp/api"
)

// SweepSink receives a streamed sweep: Start once with the workload and the
// item count, then Item once per configuration in input order. Either
// callback returning an error aborts the sweep (the server uses this when
// the client disconnects mid-stream). A nil Start is skipped.
type SweepSink struct {
	Start func(workload string, count int) error
	Item  func(item api.SweepItem) error
}

// SweepStream evaluates the same request Sweep does, but delivers each
// configuration's result through sink as soon as its window is computed
// instead of accumulating one response envelope. Items arrive in input
// order; each window of configurations is fanned out over the worker pool
// exactly like Sweep's batches, so streaming costs ordering latency only at
// window granularity, not throughput. Request-level failures (bad request,
// unknown workload) are returned before Start is called; per-configuration
// failures travel in their item's Error field; a context cancellation
// mid-run surfaces as the returned error after the items already emitted.
//
// The Result DTOs passed to sink are the same values a Sweep response would
// carry, so a streamed sweep and an envelope sweep marshal each result
// byte-identically.
func (e *Engine) SweepStream(ctx context.Context, req *api.SweepRequest, sink SweepSink) error {
	if sink.Item == nil {
		return fmt.Errorf("mipp: SweepStream: sink has no Item callback")
	}
	if err := req.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	configs, err := api.ExpandConfigs(req.Configs, req.Space)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	pd, err := e.predictor(ctx, req.Workload, req.Options)
	if err != nil {
		return err
	}
	workers := req.Workers
	if workers <= 0 {
		workers = e.workers
	}
	if sink.Start != nil {
		if err := sink.Start(req.Workload, len(configs)); err != nil {
			return err
		}
	}

	// One window = one batch chunk per worker: every window saturates the
	// pool the way a full Sweep would, and items stream at window
	// boundaries. Each emitted item is an independent DTO copy, so the
	// next window reusing pooled buffers never mutates a published item.
	workloads, pds := []string{req.Workload}, []*Predictor{pd}
	window := batchChunk(len(configs), workers) * workers
	for lo := 0; lo < len(configs); lo += window {
		hi := min(lo+window, len(configs))
		err := e.serve(ctx, workloads, pds, nil, req.Options, configs[lo:hi], workers, false,
			func(i int, res *api.Result, err error) error {
				item := api.SweepItem{Index: lo + i, Result: res}
				if cfg := configs[lo+i]; cfg != nil {
					item.Config = cfg.Name
				}
				if err != nil {
					item.Error = err.Error()
				}
				return sink.Item(item)
			})
		if err != nil {
			return err
		}
	}
	return nil
}
