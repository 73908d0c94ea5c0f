package mipp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mipp/internal/dse"
)

// SweepOption customizes a Sweep run.
type SweepOption func(*sweepConfig)

type sweepConfig struct {
	workers int
}

// WithWorkers sets the number of concurrent evaluation goroutines (default
// GOMAXPROCS). Results are deterministic and identical for any worker count.
func WithWorkers(n int) SweepOption {
	return func(c *sweepConfig) { c.workers = n }
}

// runPool executes fn(0..n-1) on a bounded worker pool, stopping early on
// context cancellation. It is the shared fan-out machinery under sweepInto
// and the Engine's predictor compiles: work-stealing by atomic index, so
// results land at their input index and the output is deterministic for any
// worker count. A pool of one runs on the calling goroutine, so a
// one-config request starts no goroutine.
func runPool(ctx context.Context, n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// batchChunk sizes the contiguous batches a sweep is split into: enough
// chunks for the pool to load-balance (about four per worker), big enough
// that the batch kernel's scratch and memo reuse pay off.
func batchChunk(n, workers int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (n + workers*4 - 1) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// sweepInto fans the batch kernels of pds over the workloads × configs
// cross product on one pool, landing workload w's rows at their input index
// in the caller-owned (typically pooled, reused) brs[w]; a nil pds[w] is
// skipped. It is the one fan-out under Sweep, the search evaluator and
// every Engine surface. Pool tasks are contiguous config chunks of one
// workload, so each runs one kernel over reused scratch, and chunks are
// disjoint row ranges, so the workers share each br race-free.
// Cancellation is observed between configs inside each chunk (a context
// error surfaces through the caller's ctx.Err() check).
func sweepInto(ctx context.Context, pds []*Predictor, configs []*Config, workers int, brs []*BatchResult) {
	// The other kernel entry point (PredictBatchInto counts its own calls);
	// atomic adds only.
	kernelBatches.Inc()
	for w, pd := range pds {
		if pd != nil {
			pd.prepareBatch(brs[w], len(configs))
			kernelConfigs.Add(uint64(len(configs)))
		}
	}
	chunk := batchChunk(len(pds)*len(configs), workers)
	perWorkload := (len(configs) + chunk - 1) / chunk
	runPool(ctx, len(pds)*perWorkload, workers, func(ti int) {
		pd, br := pds[ti/perWorkload], brs[ti/perWorkload]
		if pd == nil {
			return
		}
		lo := ti % perWorkload * chunk
		hi := min(lo+chunk, len(configs))
		pd.resolveRange(configs[lo:hi], br, lo)
		_ = pd.compiled.EvaluateRangeInto(ctx, br.resolved[lo:hi], &br.core, lo)
		pd.finishRange(br, lo, hi)
	})
}

// joinFailures joins every per-config failure in br, each with its index
// and name, so one diagnostic pass surfaces all bad configs; nil when every
// configuration validated.
func joinFailures(configs []*Config, br *BatchResult) error {
	var failures []error
	for i := range configs {
		if err := br.Err(i); err != nil {
			name := "<nil>"
			if configs[i] != nil {
				name = configs[i].Name
			}
			failures = append(failures, fmt.Errorf("config %d (%s): %w", i, name, err))
		}
	}
	return errors.Join(failures...)
}

// Sweep evaluates the predictor over every configuration, fanning
// contiguous batches out over a worker pool; each worker runs the compiled
// batch kernel (PredictBatch) over its chunk. results[i] always corresponds
// to configs[i], and the output is byte-for-byte identical regardless of
// worker count — evaluation order is the only thing concurrency changes.
//
// On context cancellation Sweep stops promptly — the batch kernel checks
// the context between configurations, not just at chunk boundaries — drains
// its workers and returns ctx.Err(). Configuration failures are aggregated:
// the returned error joins every per-config failure (with its index and
// name) rather than reporting only the first, so one diagnostic pass
// surfaces all bad configs in a generated space.
func Sweep(ctx context.Context, pd *Predictor, configs []*Config, opts ...SweepOption) (Results, error) {
	if pd == nil {
		return nil, fmt.Errorf("mipp: Sweep: nil predictor")
	}
	sc := sweepConfig{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&sc)
	}
	if len(configs) == 0 {
		return nil, nil
	}

	br := getBatchResult()
	defer putBatchResult(br)
	sweepInto(ctx, []*Predictor{pd}, configs, sc.workers, []*BatchResult{br})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := joinFailures(configs, br); err != nil {
		return nil, err
	}
	results := make(Results, len(configs))
	for i := range configs {
		if br.Ok(i) {
			results[i] = br.Result(i)
		}
	}
	return results, nil
}

// Design-space exploration vocabulary (Chapter 7), re-exported so consumers
// never reach into internal packages.

// Point is one design evaluated for one workload on the (time, power)
// plane: lower is better in both dimensions.
type Point = dse.Point

// FrontMetrics scores a predicted Pareto front against the true one (§7.4):
// sensitivity, specificity, accuracy and the hypervolume ratio.
type FrontMetrics = dse.Metrics

// Points projects sweep results onto the (time, power) plane.
func Points(results []*Result) []Point {
	out := make([]Point, 0, len(results))
	for _, r := range results {
		if r != nil {
			out = append(out, r.Point())
		}
	}
	return out
}

// ParetoFront returns the non-dominated subset of points, sorted by time.
func ParetoFront(points []Point) []Point { return dse.ParetoFront(points) }

// BestUnderPowerCap returns the fastest point whose power does not exceed
// capWatts (Table 7.1's optimization); ok is false when nothing fits.
func BestUnderPowerCap(points []Point, capWatts float64) (Point, bool) {
	return dse.BestUnderPowerCap(points, capWatts)
}

// BestByED2P returns the point minimizing energy-delay-squared, the DVFS
// selection metric of §7.3.
func BestByED2P(points []Point) (Point, bool) { return dse.BestByED2P(points) }

// CompareFronts scores predicted (time, power) points against actual ones,
// matched by config name, exactly as the thesis evaluates Pareto pruning.
func CompareFronts(predicted, actual []Point) FrontMetrics { return dse.Evaluate(predicted, actual) }

// Hypervolume computes the 2D dominated hypervolume of a front with respect
// to a reference (worst) point.
func Hypervolume(front []Point, ref Point) float64 { return dse.Hypervolume(front, ref) }
