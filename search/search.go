// Package search turns raw evaluation throughput into answers over
// combinatorially large design spaces: the paper's headline use case is
// asking one micro-architecture independent profile thousands of
// configuration questions (Chapter 7), and this package asks them on
// purpose instead of exhaustively.
//
// The layering is Space → Strategy → Runner → Report:
//
//   - an arch.Space describes axes (width, ROB, cache geometry,
//     frequency-voltage points, prefetcher) and enumerates configurations
//     lazily, so the space is never materialized;
//   - a Strategy (Exhaustive, Random, HillClimb, Genetic) decides which
//     indices to look at next, one seeded generation at a time;
//   - the Runner evaluates each generation as one batch through an
//     Evaluator — mipp.NewSearchEvaluator bridges to Predictor.PredictBatch
//     chunked over the shared worker pool — memoizing every point so
//     revisits are free;
//   - the Report carries the best point, the Pareto front over everything
//     evaluated, and a per-generation convergence trace.
//
// Every random decision flows from Options.Seed through one math/rand
// stream consumed on a single goroutine, and batch evaluation is
// deterministic for any worker count, so the same seed produces a
// byte-identical Report at 1 worker and at GOMAXPROCS — locally or through
// the /v1/search service.
package search

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"mipp/arch"
	"mipp/internal/dse"
)

// Objective selects the scalar a strategy minimizes.
type Objective string

// Objectives: execution time, energy, and the energy-delay products that
// trade them off (EDP, and the DVFS-invariant ED²P of §7.3).
const (
	ObjectiveTime   Objective = "time"
	ObjectiveEnergy Objective = "energy"
	ObjectiveEDP    Objective = "edp"
	ObjectiveED2P   Objective = "ed2p"
)

// Validate rejects unknown objective names ("" means ObjectiveTime).
func (o Objective) Validate() error {
	switch o {
	case "", ObjectiveTime, ObjectiveEnergy, ObjectiveEDP, ObjectiveED2P:
		return nil
	}
	return fmt.Errorf("search: unknown objective %q (want time, energy, edp or ed2p)", o)
}

func (o Objective) value(m Metrics) float64 {
	switch o {
	case ObjectiveEnergy:
		return m.EnergyJoules
	case ObjectiveEDP:
		return m.EDP
	case ObjectiveED2P:
		return m.ED2P
	}
	return m.TimeSeconds
}

// Metrics is what an Evaluator reports per configuration: the scalars every
// objective and constraint is computed from.
type Metrics struct {
	TimeSeconds  float64
	Watts        float64
	EnergyJoules float64
	EDP          float64
	ED2P         float64
}

// Evaluator answers one batch of configurations. mipp.NewSearchEvaluator
// adapts a compiled Predictor (batched kernel, shared worker pool); tests
// substitute synthetic ones. Results must be deterministic and positional:
// out[i] corresponds to configs[i].
//
// Reuse contract: the configs are the Runner's scratch — each generation is
// filled in place into a slab the Runner reuses — so they are valid only
// until the call returns, and an Evaluator must not keep them or anything
// pointing into them. An Evaluator may in turn reuse its returned slice —
// the metrics are valid only until the next call, and callers that retain
// them (the Runner's memo does) must copy first. An Evaluator is driven
// serially by its Runner and need not be safe for concurrent calls.
type Evaluator func(ctx context.Context, configs []*arch.Config) ([]Metrics, error)

// Constraints restricts the feasible region (Table 7.1's power-capped
// optimization, plus a relative area budget). Zero values mean
// unconstrained.
type Constraints struct {
	// MaxWatts caps total predicted power.
	MaxWatts float64 `json:"max_watts,omitempty"`
	// MaxArea caps the AreaProxy score (reference core ≈ 1).
	MaxArea float64 `json:"max_area,omitempty"`
}

// AreaProxy scores the relative silicon cost of a configuration: a weighted
// sum of the width, window and cache capacities, normalized so the
// reference architecture scores 1.0. It is a pruning proxy for constrained
// search, not a floorplan model.
func AreaProxy(c *arch.Config) float64 {
	return 0.22*float64(c.DispatchWidth)/4 +
		0.28*float64(c.ROB)/128 +
		0.08*float64(c.L1D.SizeBytes)/(32<<10) +
		0.18*float64(c.L2.SizeBytes)/(256<<10) +
		0.24*float64(c.L3.SizeBytes)/(8<<20)
}

// Options parameterizes a search run.
type Options struct {
	// Objective is the scalar to minimize (default ObjectiveTime).
	Objective Objective
	// Constraints restricts the feasible region.
	Constraints Constraints
	// Seed drives every random decision; the same seed reproduces the
	// same Report exactly.
	Seed int64
	// Budget caps unique evaluations (0 = unlimited). Strategies stop
	// when the next generation would not fit.
	Budget int
	// OnUpdate, when set, is called after every generation with the trace
	// step just recorded, the incumbent, and — only on generations where
	// it changed — the Pareto front over everything evaluated so far. It
	// is the streaming sink behind SSE search events and must not block.
	// Leaving it nil costs nothing: the runner's Pareto staircase is then
	// extended only once, for the final Report, which reads the same
	// staircase either way.
	OnUpdate func(Update)
}

// Update is one generation's streaming snapshot, delivered to
// Options.OnUpdate.
type Update struct {
	// Step is the convergence-trace entry this generation appended.
	Step TraceStep
	// Best is the incumbent (Index -1 until a feasible point exists).
	Best Eval
	// Front is the Pareto front over every feasible point evaluated so
	// far, set only on generations where it changed (nil otherwise). The
	// slice is freshly built per emission and never written by the runner
	// again; consumers may retain it.
	Front []Eval
}

// Eval is one evaluated design point.
type Eval struct {
	// Index is the point's position in the space enumeration.
	Index int `json:"index"`
	// Config is the generated configuration name.
	Config       string  `json:"config"`
	TimeSeconds  float64 `json:"time_seconds"`
	Watts        float64 `json:"watts"`
	EnergyJoules float64 `json:"energy_joules"`
	EDP          float64 `json:"edp"`
	ED2P         float64 `json:"ed2p"`
	// Area is the AreaProxy score.
	Area float64 `json:"area"`
	// Fitness is the objective value (lower is better).
	Fitness float64 `json:"fitness"`
	// Feasible reports whether the point satisfies the constraints;
	// Violation is the constraint excess guiding infeasible comparisons.
	Feasible  bool    `json:"feasible"`
	Violation float64 `json:"violation,omitempty"`
}

// Better reports whether a beats b: feasible beats infeasible, smaller
// violation breaks infeasible ties, then lower fitness, then lower index —
// a total, deterministic order.
func Better(a, b Eval) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if !a.Feasible && a.Violation != b.Violation {
		return a.Violation < b.Violation
	}
	if a.Fitness != b.Fitness {
		return a.Fitness < b.Fitness
	}
	return a.Index < b.Index
}

// TraceStep is one convergence-trace entry, recorded per generation.
type TraceStep struct {
	Generation  int `json:"generation"`
	Evaluations int `json:"evaluations"`
	// BestIndex/BestFitness track the incumbent (-1/0 before any
	// feasible point is found).
	BestIndex   int     `json:"best_index"`
	BestFitness float64 `json:"best_fitness"`
}

// Report is the outcome of one search run. Its JSON form is the wire shape
// served by /v1/search — api.SearchReport aliases it — which is what makes
// local and remote runs byte-identical for the same seed.
type Report struct {
	// Workload names the profile searched against (filled by the caller;
	// search itself never sees it).
	Workload string `json:"workload,omitempty"`
	// Strategy and Objective echo the run parameters.
	Strategy  string `json:"strategy"`
	Objective string `json:"objective"`
	Seed      int64  `json:"seed"`
	// SpaceSize is the full space cardinality; Evaluations is how many
	// unique points the strategy actually looked at.
	SpaceSize   int `json:"space_size"`
	Evaluations int `json:"evaluations"`
	Generations int `json:"generations"`
	// Feasible counts evaluated points satisfying the constraints.
	Feasible int `json:"feasible"`
	// Best is the incumbent (nil when no feasible point was found).
	Best *Eval `json:"best,omitempty"`
	// Front is the Pareto front over every feasible evaluated point on
	// the (time, power) plane, sorted by time.
	Front []Eval `json:"front"`
	// Trace is the per-generation convergence trace.
	Trace []TraceStep `json:"trace"`
}

// TopK returns up to k distinct evaluations worth escalating to a
// ground-truth run: the incumbent first, then Pareto-front points by
// ascending (Fitness, Index). The order is a pure function of the report,
// so escalation stays as reproducible as the search itself.
func (r *Report) TopK(k int) []Eval {
	if k <= 0 {
		return nil
	}
	out := make([]Eval, 0, k)
	seen := make(map[int]bool, k)
	if r.Best != nil {
		out = append(out, *r.Best)
		seen[r.Best.Index] = true
	}
	front := append([]Eval(nil), r.Front...)
	slices.SortFunc(front, func(a, b Eval) int {
		if c := cmp.Compare(a.Fitness, b.Fitness); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	for _, e := range front {
		if len(out) >= k {
			break
		}
		if seen[e.Index] {
			continue
		}
		seen[e.Index] = true
		out = append(out, e)
	}
	return out
}

// Strategy decides which points of the space to evaluate, generation by
// generation, through the Runner it is handed. Implementations must draw
// randomness only from the Runner's seeded stream and must respect
// Remaining() — that is what makes runs reproducible and budgeted.
type Strategy interface {
	// Name is the strategy's wire name.
	Name() string
	// Search drives the runner until converged, out of budget, or ctx is
	// cancelled.
	Search(ctx context.Context, r *Runner) error
}

// Runner is the evaluation driver strategies program against: it fills
// each generation's requested indices from the space into a reused config
// slab, evaluates the generation as one batch, memoizes every point, and
// records the convergence trace.
type Runner struct {
	space *arch.Space
	eval  Evaluator
	opts  Options
	rng   *rand.Rand

	// The memo (space index → position in evals) lives in a direct-indexed
	// slab when the space is small enough to afford one, and in a map
	// otherwise: the slab turns the three memo touches per evaluation
	// (dedup probe, reservation, out-mapping) into array indexing. Slab
	// entries store position+1 so the zero value means "unseen".
	seenSlab []int32
	seen     map[int]int32
	best     int // position of incumbent in evals, -1 until feasible
	gens     int
	trace    []TraceStep

	// jobBuffers holds the eval log and the generation scratch, taken from
	// a pool for the job and returned by release.
	*jobBuffers

	// front is the Pareto staircase over evals[:folded]; a member's
	// position is its memo position. It is extended after every generation
	// while Options.OnUpdate is set, and once more for the report.
	front  dse.Staircase
	folded int
}

// jobBuffers are a runner's per-job buffers. Nothing a caller keeps aliases
// them: Report and Update carry fresh fronts and Evals by value, and the
// trace is the job's own.
type jobBuffers struct {
	// evals is the eval log, every unique point in evaluation order;
	// evalsHigh is the longest it has been this job (a budget refusal
	// truncates it), so release knows the prefix to clear.
	evals     []Eval
	evalsHigh int
	// slab holds one generation's configurations, filled in place;
	// cfgs[k] points at slab[k] for every k < cap(slab). len(slab) is the
	// largest generation this job has filled.
	slab []arch.Config
	cfgs []*arch.Config
	idx  []int
	// out backs Evaluate's returned slice (see Evaluate's reuse contract);
	// len(out) is the largest generation it has returned this job.
	out []Eval
}

// jobBufferPool recycles jobBuffers across runs, each returned with every
// entry its run wrote cleared.
var jobBufferPool = sync.Pool{New: func() any { return new(jobBuffers) }}

// maxPooledEvals and maxPooledGen bound the eval log and the
// generation-sized buffers (slab, cfgs, idx, out) a run may return to the
// pool: one huge search must not pin its buffers for the process lifetime.
const (
	maxPooledEvals = 1 << 16
	maxPooledGen   = 1 << 12
)

// configs returns n configuration slots of the slab, growing it when the
// generation is larger than any before.
func (b *jobBuffers) configs(n int) []*arch.Config {
	if n > cap(b.slab) {
		b.slab = make([]arch.Config, n)
		b.cfgs = make([]*arch.Config, n)
		for k := range b.slab {
			b.cfgs[k] = &b.slab[k]
		}
	}
	if n > len(b.slab) {
		b.slab = b.slab[:n]
	}
	return b.cfgs[:n]
}

// seenSlabMax bounds the memo slab at 16 MiB of int32; spaces larger than
// this fall back to the map so runner memory scales with the sample, not
// the space.
const seenSlabMax = 1 << 22

// seenSlabs pools memo slabs by capacity class: class c holds slabs of
// capacity 1<<c, every entry zero, for spaces of up to 1<<c points. A run
// clears only the entries it recorded before it returns its slab, so a
// search on a large space does not allocate and zero a whole slab per job.
var seenSlabs [23]sync.Pool // classes 0..22: up to seenSlabMax points

// getSeenSlab returns a zeroed slab of length n <= seenSlabMax.
func getSeenSlab(n int) []int32 {
	class := bits.Len(uint(n - 1))
	if p, ok := seenSlabs[class].Get().(*[]int32); ok {
		return (*p)[:n]
	}
	return make([]int32, n, 1<<class)
}

// release clears the memo entries the run recorded — every one sits at an
// evals position, since budget refusals roll their reservations back — and
// every buffer entry it wrote, then returns the memo slab and the job
// buffers to their pools. The runner must not be used afterwards.
func (r *Runner) release() {
	if r.seenSlab != nil {
		for i := range r.evals {
			r.seenSlab[r.evals[i].Index] = 0
		}
		slab := r.seenSlab[:cap(r.seenSlab)]
		r.seenSlab = nil
		seenSlabs[bits.Len(uint(len(slab)-1))].Put(&slab)
	}
	b := r.jobBuffers
	r.jobBuffers = nil
	if cap(b.evals) > maxPooledEvals {
		b.evals = nil
	} else {
		clear(b.evals[:b.evalsHigh])
		b.evals = b.evals[:0]
	}
	if max(cap(b.slab), cap(b.idx), cap(b.out)) > maxPooledGen {
		*b = jobBuffers{evals: b.evals}
	} else {
		clear(b.slab)
		clear(b.out)
		b.slab, b.idx, b.out = b.slab[:0], b.idx[:0], b.out[:0]
	}
	b.evalsHigh = 0
	jobBufferPool.Put(b)
}

func newRunner(space *arch.Space, ev Evaluator, opts Options) *Runner {
	r := &Runner{
		space:      space,
		eval:       ev,
		opts:       opts,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		best:       -1,
		jobBuffers: jobBufferPool.Get().(*jobBuffers),
	}
	if n := space.Size(); n <= seenSlabMax {
		r.seenSlab = getSeenSlab(n)
	} else {
		hint := opts.Budget
		if hint <= 0 || hint > 1<<20 {
			hint = 1 << 12
		}
		r.seen = make(map[int]int32, hint)
	}
	return r
}

// lookup returns the memo position of space index i, if evaluated.
//
//mipp:hotpath
func (r *Runner) lookup(i int) (int32, bool) {
	if r.seenSlab != nil {
		p := r.seenSlab[i]
		return p - 1, p != 0
	}
	p, ok := r.seen[i]
	return p, ok
}

//mipp:hotpath
func (r *Runner) record(i int, pos int32) {
	if r.seenSlab != nil {
		r.seenSlab[i] = pos + 1
		return
	}
	r.seen[i] = pos
}

func (r *Runner) forget(i int) {
	if r.seenSlab != nil {
		r.seenSlab[i] = 0
		return
	}
	delete(r.seen, i)
}

// Space returns the space under search.
func (r *Runner) Space() *arch.Space { return r.space }

// SpaceSize returns the space cardinality.
func (r *Runner) SpaceSize() int { return r.space.Size() }

// RNG returns the run's seeded random stream. It must be consumed from one
// goroutine only (strategies are single-threaded; the batch evaluation
// underneath is where parallelism lives).
func (r *Runner) RNG() *rand.Rand { return r.rng }

// Evaluations returns the number of unique points evaluated so far.
func (r *Runner) Evaluations() int { return len(r.evals) }

// Remaining returns how many unique evaluations the budget still allows
// (a large number when unbudgeted).
func (r *Runner) Remaining() int {
	if r.opts.Budget <= 0 {
		return int(^uint(0) >> 1)
	}
	return r.opts.Budget - len(r.evals)
}

// Seen reports whether index i has already been evaluated.
func (r *Runner) Seen(i int) bool {
	_, ok := r.lookup(i)
	return ok
}

// Best returns the incumbent; ok is false while no feasible point exists.
func (r *Runner) Best() (Eval, bool) {
	if r.best < 0 {
		return Eval{Index: -1}, false
	}
	return r.evals[r.best], true
}

// Evaluate runs one generation: every not-yet-seen index in the request is
// materialized and evaluated as a single batch (deduplicated — revisits are
// served from the memo), and out[i] is the Eval for indices[i]. It errors
// if the new unique points would exceed the remaining budget; strategies
// trim their generations first. A generation is recorded in the trace even
// when fully memoized, so the trace mirrors the strategy's control flow.
//
// The returned slice is backed by scratch reused across generations: it is
// valid until the next Evaluate call, and strategies that keep Evals across
// generations must copy the elements (they are plain values).
//
//mipp:hotpath
func (r *Runner) Evaluate(ctx context.Context, indices []int) ([]Eval, error) {
	fresh := r.idx[:0]
	for _, idx := range indices {
		if _, ok := r.lookup(idx); ok {
			continue
		}
		// Reserve the slot now so duplicates within this generation
		// dedupe too; the position is filled below.
		r.record(idx, int32(len(r.evals)))
		r.evals = append(r.evals, Eval{Index: idx})
		fresh = append(fresh, idx)
	}
	r.idx = fresh
	r.evalsHigh = max(r.evalsHigh, len(r.evals))
	// Evaluate the generation in enumeration order regardless of how the
	// strategy drew it: ascending indices vary the space's inner axes
	// fastest, so consecutive configs share their back-end and geometry and
	// the batch kernel's caches hit instead of thrashing. Results are
	// per-config pure, so order only affects throughput (and which of two
	// exactly-tied points is recorded as best — still deterministic).
	slices.Sort(fresh)
	if r.opts.Budget > 0 && len(r.evals) > r.opts.Budget {
		// Roll the reservations back so the memo never holds phantom
		// never-evaluated points and Evaluations() stays truthful for
		// strategies that treat the budget error as a soft stop.
		for _, idx := range fresh {
			r.forget(idx)
		}
		r.evals = r.evals[:len(r.evals)-len(fresh)]
		//mipp:allow hotpath cold terminal error path, at most once per search
		return nil, fmt.Errorf("search: budget exhausted (%d evaluations done, %d more requested, budget %d)",
			len(r.evals), len(fresh), r.opts.Budget)
	}

	if len(fresh) > 0 {
		cfgs := r.configs(len(fresh))
		for k, idx := range fresh {
			r.space.AtInto(idx, cfgs[k])
		}
		metrics, err := r.eval(ctx, cfgs)
		if err != nil {
			return nil, err
		}
		if len(metrics) != len(cfgs) {
			//mipp:allow hotpath cold evaluator-contract violation path
			return nil, fmt.Errorf("search: evaluator returned %d metrics for %d configs", len(metrics), len(cfgs))
		}
		for i, idx := range fresh {
			e := r.score(idx, cfgs[i], metrics[i])
			p, _ := r.lookup(idx)
			pos := int(p)
			r.evals[pos] = e
			if e.Feasible && (r.best < 0 || Better(e, r.evals[r.best])) {
				r.best = pos
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	r.gens++
	step := TraceStep{Generation: r.gens, Evaluations: len(r.evals), BestIndex: -1}
	if r.best >= 0 {
		step.BestIndex = r.evals[r.best].Index
		step.BestFitness = r.evals[r.best].Fitness
	}
	r.trace = append(r.trace, step)
	if r.opts.OnUpdate != nil {
		u := Update{Step: step, Best: Eval{Index: -1}}
		if r.best >= 0 {
			u.Best = r.evals[r.best]
		}
		if r.fold() {
			u.Front = r.frontEvals()
		}
		r.opts.OnUpdate(u)
	}

	if len(indices) > cap(r.out) {
		r.out = make([]Eval, len(indices))
	}
	r.out = r.out[:max(len(r.out), len(indices))]
	out := r.out[:len(indices)]
	for i, idx := range indices {
		p, _ := r.lookup(idx)
		out[i] = r.evals[p]
	}
	return out, nil
}

// score derives the Eval for one evaluated configuration.
//
//mipp:hotpath
func (r *Runner) score(idx int, c *arch.Config, m Metrics) Eval {
	e := Eval{
		Index:        idx,
		Config:       c.Name,
		TimeSeconds:  m.TimeSeconds,
		Watts:        m.Watts,
		EnergyJoules: m.EnergyJoules,
		EDP:          m.EDP,
		ED2P:         m.ED2P,
		Area:         AreaProxy(c),
		Fitness:      r.opts.Objective.value(m),
		Feasible:     true,
	}
	if lim := r.opts.Constraints.MaxWatts; lim > 0 && e.Watts > lim {
		e.Feasible = false
		e.Violation += e.Watts - lim
	}
	if lim := r.opts.Constraints.MaxArea; lim > 0 && e.Area > lim {
		e.Feasible = false
		e.Violation += e.Area - lim
	}
	return e
}

// report assembles the final Report.
func (r *Runner) report(strategy string) *Report {
	obj := r.opts.Objective
	if obj == "" {
		obj = ObjectiveTime
	}
	rep := &Report{
		Strategy:    strategy,
		Objective:   string(obj),
		Seed:        r.opts.Seed,
		SpaceSize:   r.space.Size(),
		Evaluations: len(r.evals),
		Generations: r.gens,
		Front:       []Eval{},
		Trace:       r.trace,
	}
	if rep.Trace == nil {
		rep.Trace = []TraceStep{}
	}
	for i := range r.evals {
		if r.evals[i].Feasible {
			rep.Feasible++
		}
	}
	if r.best >= 0 {
		best := r.evals[r.best]
		rep.Best = &best
	}
	r.fold()
	rep.Front = r.frontEvals()
	return rep
}

// fold extends the front with the evals appended since the last fold and
// reports whether it changed. Every eval past r.folded must be final.
// Infeasible evals are skipped here rather than filtered out by the caller,
// so the memo is never copied. An exact (time, power) tie keeps the lowest
// space index, so the front is a pure function of the set of evals.
//
//mipp:hotpath
func (r *Runner) fold() bool {
	changed := false
	for i := r.folded; i < len(r.evals); i++ {
		e := &r.evals[i]
		if e.Feasible && r.front.Add(e.TimeSeconds, e.Watts, e.Index, i) {
			changed = true
		}
	}
	r.folded = len(r.evals)
	return changed
}

// frontEvals copies the front's evals, by ascending time, into a fresh
// slice. Nothing in the runner writes that slice again, so a caller may
// publish it.
func (r *Runner) frontEvals() []Eval {
	front := make([]Eval, r.front.Len())
	for i := range front {
		front[i] = r.evals[r.front.Pos(i)]
	}
	return front
}

// Run executes one search: validate, build the runner, let the strategy
// drive, and assemble the report. The caller owns Report.Workload.
func Run(ctx context.Context, ev Evaluator, space *arch.Space, st Strategy, opts Options) (*Report, error) {
	if ev == nil {
		return nil, fmt.Errorf("search: nil evaluator")
	}
	if st == nil {
		return nil, fmt.Errorf("search: nil strategy")
	}
	if space == nil {
		return nil, fmt.Errorf("search: nil space")
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Objective.Validate(); err != nil {
		return nil, err
	}
	if opts.Budget < 0 {
		return nil, fmt.Errorf("search: negative budget %d", opts.Budget)
	}
	r := newRunner(space, ev, opts)
	defer r.release()
	if err := st.Search(ctx, r); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.report(st.Name()), nil
}
