package mipp

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mipp/api"
	"mipp/internal/core"
	"mipp/internal/power"
)

// BatchResult is the caller-owned result block of the batched prediction
// path: the kernel's result rows (held by the embedded core block) plus the
// facade's per-config state — resolved configurations, per-config
// validation errors and power stacks. Grown once by PredictBatchInto and
// reused across calls, so steady-state batched prediction allocates
// nothing.
//
// A BatchResult owns its memory: accessors that return pointers or slices
// alias buffers that the next PredictBatchInto (or Put back to a pool)
// overwrites, while Result materializes an independent copy. It is not safe
// for concurrent use, except that the sweep fan-out writes disjoint row
// ranges from multiple goroutines.
type BatchResult struct {
	n int
	// dirty is the most rows prepareBatch sized br for since the last
	// release: the prefix of resolved, copies and errs that may still pin
	// configurations and errors.
	dirty int
	// resolved[i] is the validated (possibly prefetcher-overridden)
	// configuration evaluated into row i, nil where errs[i] is set.
	resolved []*Config
	// copies backs the prefetcher-override copies so resolving does not
	// allocate; only grown when the predictor carries an override.
	copies []Config
	errs   []error
	power  []power.Stack
	core   core.BatchResult

	// fres is the reused facade row behind fill; see Result for the
	// copying accessor.
	fres Result
}

// growSlice returns s resized to n, reusing its backing array when it is
// large enough and zeroing the returned prefix either way.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Len returns the number of configuration slots.
func (br *BatchResult) Len() int { return br.n }

// Err returns slot i's validation error (nil for evaluated slots).
func (br *BatchResult) Err(i int) error { return br.errs[i] }

// Ok reports whether slot i holds a complete prediction: it validated and
// was evaluated before any cancellation.
func (br *BatchResult) Ok(i int) bool { return br.errs[i] == nil && br.core.Valid(i) }

// fill lowers slot i into the reused facade row, aliasing the batch's
// MicroCPI storage. The pointer is valid until the next fill on br.
func (br *BatchResult) fill(i int) *Result {
	row := br.core.Row(i)
	br.fres = Result{
		Config:         row.Config,
		Workload:       row.Workload,
		FrequencyGHz:   br.resolved[i].FrequencyGHz,
		Cycles:         row.Cycles,
		Uops:           row.Uops,
		Instructions:   row.Instructions,
		Stack:          row.Stack,
		Activity:       row.Activity,
		Power:          br.power[i],
		Deff:           row.Deff,
		MLP:            row.MLP,
		BranchMissRate: row.BranchMissRate,
		MicroCPI:       row.MicroCPI,
		Limiter:        row.Limiter,
	}
	return &br.fres
}

// Result materializes slot i as a standalone *Result, byte-identical to
// what Predict would have returned for the same configuration, or nil when
// the slot is not Ok.
func (br *BatchResult) Result(i int) *Result {
	if !br.Ok(i) {
		return nil
	}
	out := *br.fill(i)
	out.MicroCPI = make([]float64, len(out.MicroCPI))
	copy(out.MicroCPI, br.fres.MicroCPI)
	return &out
}

// apiResult lowers slot i to the wire DTO. The DTO is an independent copy
// (apiResult copies MicroCPI when requested), so it may be published while
// br's buffers are reused.
func (br *BatchResult) apiResult(i int, withMicroCPI bool) *api.Result {
	return apiResult(br.fill(i), withMicroCPI)
}

// release drops the references a reused BatchResult pins — configurations,
// errors, name strings — keeping the buffers' capacity.
func (br *BatchResult) release() {
	clear(br.resolved[:br.dirty])
	clear(br.copies[:min(br.dirty, cap(br.copies))])
	clear(br.errs[:br.dirty])
	br.core.Release()
	br.n, br.dirty = 0, 0
}

// batchResultPool recycles the batch blocks behind the compatibility paths
// (PredictBatch, Sweep, the Engine surfaces), so those too run allocation-
// light without every call site owning a buffer.
var batchResultPool = sync.Pool{New: func() any { return new(BatchResult) }}

// maxPooledRows bounds the row capacity a BatchResult may carry back into
// the pool: one huge sweep must not pin its rows for the process lifetime.
const maxPooledRows = 1 << 15

func getBatchResult() *BatchResult { return batchResultPool.Get().(*BatchResult) }

func putBatchResult(br *BatchResult) {
	if cap(br.resolved) > maxPooledRows {
		return
	}
	br.release()
	batchResultPool.Put(br)
}

// prepareBatch sizes br for n configurations predicted by pd.
func (pd *Predictor) prepareBatch(br *BatchResult, n int) {
	pd.compiled.PrepareBatch(&br.core, n)
	br.n = n
	br.dirty = max(br.dirty, n)
	br.resolved = growSlice(br.resolved, n)
	br.errs = growSlice(br.errs, n)
	br.power = growSlice(br.power, n)
	if pd.prefetcher != nil {
		br.copies = growSlice(br.copies, n)
	}
}

// resolveRange validates configs into br's slots [off, off+len(configs)),
// applying the predictor's prefetcher override without allocating (the
// copies land in br's backing column).
//
//mipp:hotpath
func (pd *Predictor) resolveRange(configs []*Config, br *BatchResult, off int) {
	for i, cfg := range configs {
		j := off + i
		if cfg == nil {
			br.errs[j] = fmt.Errorf("mipp: Predict: nil config") //mipp:allow hotpath cold per-item failure path
			continue
		}
		c := cfg
		if pd.prefetcher != nil && c.Prefetcher.Enabled != *pd.prefetcher {
			br.copies[j] = *cfg
			br.copies[j].Prefetcher.Enabled = *pd.prefetcher
			c = &br.copies[j]
		}
		if err := c.Validate(); err != nil {
			br.errs[j] = fmt.Errorf("mipp: Predict: %w", err) //mipp:allow hotpath cold per-item failure path
			continue
		}
		br.resolved[j] = c
	}
}

// finishRange attaches the power estimate to every evaluated slot in
// [lo, hi). A slot with a number on the wire that is not finite becomes a
// per-config error, since encoding/json cannot encode NaN or ±Inf.
//
//mipp:hotpath
func (pd *Predictor) finishRange(br *BatchResult, lo, hi int) {
	for i := lo; i < hi; i++ {
		if br.errs[i] != nil || !br.core.Valid(i) {
			continue
		}
		br.power[i] = power.Estimate(br.resolved[i], &br.core.Row(i).Activity)
		if !br.finite(i) {
			br.errs[i] = fmt.Errorf("mipp: Predict: config %s: prediction is not finite", br.resolved[i].Name) //mipp:allow hotpath cold per-item failure path
		}
	}
}

// finite reports whether every number the wire result of slot i carries is
// finite. Watts sums the power stack, so it is finite only if every
// component is; ED2P is the energy times the time twice, so it is finite
// only if EnergyJoules and EDP, the products on its way, are.
func (br *BatchResult) finite(i int) bool {
	row := br.core.Row(i)
	var r Result
	r.FrequencyGHz, r.Cycles, r.Instructions, r.Power = br.resolved[i].FrequencyGHz, row.Cycles, row.Instructions, br.power[i]
	return allFinite(r.FrequencyGHz, r.Cycles, row.Uops, r.Instructions, r.CPI(), r.TimeSeconds(), r.Watts(), r.ED2P(),
		row.Deff, row.MLP, row.BranchMissRate) && allFinite(row.Stack.Cycles[:]...) && allFinite(row.MicroCPI...)
}

func allFinite(xs ...float64) bool {
	for _, x := range xs {
		if !(math.Abs(x) <= math.MaxFloat64) { // false for NaN and ±Inf
			return false
		}
	}
	return true
}

// PredictBatchInto is the allocation-free batched prediction entry point:
// it sizes br for configs (reusing its buffers across calls) and evaluates
// every configuration in input order on one pooled kernel, so steady-state
// generations — a search strategy's, a sweep window's — assemble results
// with zero allocations. Row i always corresponds to configs[i]:
// br.Err(i) is non-nil exactly where the configuration failed validation or
// predicted a number that is not finite (a bad configuration skips its
// slot, it does not abort the batch), and
// br.Result(i) is byte-identical to what Predict(configs[i]) returns.
//
// Every configuration is validated up front; the context is then polled
// every few configurations during evaluation (see core.CtxCheckStride), so
// cancellation inside a large batch is observed promptly. On cancellation
// the rows evaluated so far keep their values, the rest are not Ok, and
// ctx.Err() is returned. Unlike Predict, PredictBatchInto with one br is
// not safe for concurrent use — br is the whole point of the call; use one
// BatchResult per goroutine (or PredictBatch, which pools them).
func (pd *Predictor) PredictBatchInto(ctx context.Context, configs []*Config, br *BatchResult) error {
	// Two atomic adds are the whole cost of instrumenting the hot path: the
	// package-level counters live on obs.Default() and allocate nothing.
	kernelBatches.Inc()
	kernelConfigs.Add(uint64(len(configs)))
	pd.prepareBatch(br, len(configs))
	pd.resolveRange(configs, br, 0)
	err := pd.compiled.EvaluateRangeInto(ctx, br.resolved, &br.core, 0)
	pd.finishRange(br, 0, len(configs))
	return err
}
