package mipp

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"mipp/api"
	"mipp/arch"
	"mipp/obs"
	"mipp/search"
)

// searchJob is one asynchronous design-space search run by an Engine. The
// goroutine driving search.Run is the only writer of the result fields;
// progress counters are atomics so polling never contends with evaluation.
type searchJob struct {
	id       string
	workload string
	strategy string
	size     int

	// rid is the X-Request-Id of the submitting request: job lifecycle log
	// lines carry it, and it is the trace token of the job's spans, so a
	// slow search decomposes in the logs by the same ID the client holds.
	rid string

	cancel context.CancelFunc
	done   chan struct{}

	evals atomic.Int64
	gens  atomic.Int64

	mu     sync.Mutex
	state  string
	errMsg string
	report *api.SearchReport

	// events is the job's streaming surface: per-generation progress and
	// front events published by the search goroutine, consumed by any
	// number of GET /v1/search/{id}/events subscribers.
	events searchEventLog
}

// publishUpdate turns one runner update into its stream events: a progress
// event per generation, plus a front event whenever the Pareto front
// changed. It runs on the search goroutine between generations; publish
// never blocks, so it cannot stall evaluation.
func (j *searchJob) publishUpdate(u search.Update) {
	ev := api.SearchEvent{
		SchemaVersion: api.SchemaVersion,
		JobID:         j.id,
		Type:          api.SearchEventProgress,
		Generation:    u.Step.Generation,
		Evaluations:   u.Step.Evaluations,
	}
	if u.Best.Index >= 0 {
		best := u.Best
		ev.Best = &best
	}
	j.events.publish(ev)
	if u.Front != nil {
		j.events.publish(api.SearchEvent{
			SchemaVersion: api.SchemaVersion,
			JobID:         j.id,
			Type:          api.SearchEventFront,
			Generation:    u.Step.Generation,
			Evaluations:   u.Step.Evaluations,
			Front:         u.Front,
		})
	}
}

// terminal reports whether the job has finished.
func (j *searchJob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != api.JobRunning
}

// snapshot renders the job as its wire DTO.
func (j *searchJob) snapshot() api.SearchJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.SearchJob{
		ID:          j.id,
		State:       j.state,
		Workload:    j.workload,
		Strategy:    j.strategy,
		SpaceSize:   j.size,
		Evaluations: int(j.evals.Load()),
		Generations: int(j.gens.Load()),
		Error:       j.errMsg,
		Report:      j.report,
	}
}

// Job-registry bounds: admission refuses work past maxInFlightSearchJobs
// (each job owns a full-throughput worker pool, so stacking more is pure
// contention), and finished jobs are retained — pollable — only until the
// registry exceeds maxRetainedSearchJobs, then evicted oldest-first. Both
// keep a long-lived daemon's memory flat.
const (
	maxInFlightSearchJobs = 32
	maxRetainedSearchJobs = 128
)

// maxSearchEvaluations bounds one job's unique evaluations — the runner
// memoizes every evaluated point (~150 bytes each), so this caps a job at
// tens-to-hundreds of MB and minutes of work. It is the async counterpart
// of api.MaxMaterializedSpace: requests over larger spaces must say how
// much of them to look at.
const maxSearchEvaluations = 1 << 20

// searchJobs is the Engine's job registry.
type searchJobs struct {
	mu   sync.Mutex
	jobs map[string]*searchJob
	// order is submission order, the eviction queue for finished jobs.
	order []*searchJob
	seq   atomic.Uint64

	// inFlight and completed are obs instruments (registered on /metrics by
	// MetricsInto, read back by Stats for /healthz). inFlight doubles as
	// the admission counter: Gauge.Add is a CAS returning the new value, so
	// the claim-then-check pattern stays race-free.
	inFlight  obs.Gauge
	completed obs.Counter

	// token makes job IDs unique per engine instance, so a router fronting
	// N replicas never sees two replicas mint the same ID ("job-1" each).
	tokenOnce sync.Once
	token     string
}

// nextID mints a cluster-unique job ID: a per-engine random token plus the
// engine-local sequence number.
func (s *searchJobs) nextID() string {
	s.tokenOnce.Do(func() {
		var b [4]byte
		if _, err := crand.Read(b[:]); err != nil {
			s.token = "00000000"
		} else {
			s.token = hex.EncodeToString(b[:])
		}
	})
	return fmt.Sprintf("job-%s-%d", s.token, s.seq.Add(1))
}

func (s *searchJobs) get(id string) (*searchJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// add registers a job and evicts the oldest finished jobs beyond the
// retention bound (running jobs are never evicted).
func (s *searchJobs) add(job *searchJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs == nil {
		s.jobs = make(map[string]*searchJob)
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job)
	if len(s.jobs) <= maxRetainedSearchJobs {
		return
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if len(s.jobs) > maxRetainedSearchJobs && j.terminal() {
			delete(s.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	// Release the evicted tail for the garbage collector.
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil
	}
	s.order = kept
}

// StrategyFor lowers a wire StrategySpec to its search.Strategy — the one
// place the strategy vocabulary maps onto constructors, shared by the
// engine's job admission and the CLI.
func StrategyFor(spec api.StrategySpec) (search.Strategy, error) {
	switch spec.Kind {
	case "exhaustive":
		return search.Exhaustive{}, nil
	case "random":
		return search.Random{Samples: spec.Samples}, nil
	case "hill":
		return search.HillClimb{Restarts: spec.Restarts}, nil
	case "genetic":
		return search.Genetic{
			Population:   spec.Population,
			Generations:  spec.Generations,
			MutationRate: spec.MutationRate,
			Elite:        spec.Elite,
		}, nil
	}
	return nil, fmt.Errorf("%w: unknown strategy %q", ErrBadRequest, spec.Kind)
}

// SubmitSearch implements Searcher: validate and admit the job, then run it
// on its own goroutine against the engine's cached predictors. The request
// context only covers admission — the job itself is detached and lives
// until it finishes or is cancelled.
func (e *Engine) SubmitSearch(ctx context.Context, req *api.SearchRequest) (*api.SearchJobResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	space, err := req.Space.Lazy()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	strategy, err := StrategyFor(req.Strategy)
	if err != nil {
		return nil, err
	}
	// Bound per-job work: the runner memoizes every evaluated point, so
	// an uncapped run over a huge space would grow without limit.
	if req.Budget > maxSearchEvaluations {
		return nil, fmt.Errorf("%w: budget %d exceeds the per-job evaluation cap %d",
			ErrBadRequest, req.Budget, maxSearchEvaluations)
	}
	if req.Budget == 0 && space.Size() > maxSearchEvaluations {
		return nil, fmt.Errorf("%w: unbudgeted search over %d points (cap %d); set a budget",
			ErrBadRequest, space.Size(), maxSearchEvaluations)
	}
	if err := e.profileExists(req.Workload); err != nil {
		return nil, err
	}
	// Atomic admission: claim the slot first, release it if that pushed
	// past the cap — concurrent submits cannot overshoot. (Gauge.Add is a
	// CAS returning the new value, so this works exactly like the atomic
	// counter it replaced.)
	if n := e.search.inFlight.Add(1); n > maxInFlightSearchJobs {
		e.search.inFlight.Add(-1)
		return nil, fmt.Errorf("%w: %d search jobs already running (max %d)",
			ErrBusy, int(n)-1, maxInFlightSearchJobs)
	}
	if err := ctx.Err(); err != nil {
		e.search.inFlight.Add(-1)
		return nil, err
	}

	jctx, cancel := context.WithCancel(context.Background())
	job := &searchJob{
		id:       e.search.nextID(),
		workload: req.Workload,
		strategy: strategy.Name(),
		size:     space.Size(),
		rid:      api.RequestIDFromContext(ctx),
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    api.JobRunning,
	}
	// The job's event log feeds the engine-wide stream instruments.
	job.events.subscribers = &e.metrics.streamSubscribers
	job.events.dropped = &e.metrics.streamDropped
	e.search.add(job)

	go e.runSearchJob(jctx, job, req, space, strategy)

	snap := job.snapshot()
	return &api.SearchJobResponse{SchemaVersion: api.SchemaVersion, Job: snap}, nil
}

// runSearchJob drives one job to completion: compile (or fetch) the
// predictor, run the strategy, land the report. It owns the job's terminal
// state transition.
func (e *Engine) runSearchJob(ctx context.Context, job *searchJob, req *api.SearchRequest, space *arch.Space, strategy search.Strategy) {
	// The job's root span: every compile, store-load and generation span
	// below hangs off it, all sharing the submitting request's ID as the
	// trace token. The context also carries the request ID so nested spans
	// resolve the same trace.
	ctx = api.ContextWithRequestID(ctx, job.rid)
	ctx, span := obs.StartSpan(ctx, e.logger, job.rid, "search.job")
	e.logf("search job %s started workload=%s strategy=%s space=%d rid=%s",
		job.id, job.workload, job.strategy, job.size, job.rid)

	// finish is called exactly once, on this goroutine. The registry
	// counters move before the job's state becomes terminal, so a poller
	// that sees "done" can never catch /healthz still counting the job as
	// in flight.
	finished := false
	finish := func(state, errMsg string, rep *api.SearchReport) {
		finished = true
		e.search.inFlight.Add(-1)
		e.search.completed.Inc()
		e.logf("search job %s %s evals=%d gens=%d rid=%s",
			job.id, state, job.evals.Load(), job.gens.Load(), job.rid)
		span.Finish()
		job.mu.Lock()
		job.state = state
		job.errMsg = errMsg
		job.report = rep
		job.mu.Unlock()
		// Terminal event last, then close: a subscriber that read the
		// whole stream has seen the report, and one that polls after the
		// stream closed finds the job already terminal.
		job.events.publish(api.SearchEvent{
			SchemaVersion: api.SchemaVersion,
			JobID:         job.id,
			Type:          state,
			Error:         errMsg,
			Report:        rep,
		})
		job.events.close()
	}
	defer func() {
		// A panic anywhere in the strategy or evaluator fails this job
		// — it must never take down the daemon and every other job.
		if p := recover(); p != nil && !finished {
			finish(api.JobFailed, fmt.Sprintf("search panicked: %v", p), nil)
		}
		job.cancel()
		close(job.done)
	}()

	pd, err := e.predictor(ctx, req.Workload, req.Options)
	if err != nil {
		finish(api.JobFailed, err.Error(), nil)
		return
	}
	opts := search.Options{
		Objective: search.Objective(req.Objective),
		Seed:      req.Strategy.Seed,
		Budget:    req.Budget,
		OnUpdate: func(u search.Update) {
			job.evals.Store(int64(u.Step.Evaluations))
			job.gens.Store(int64(u.Step.Generation))
			if u.Front != nil {
				e.metrics.searchFrontSize.Set(float64(len(u.Front)))
			}
			job.publishUpdate(u)
		},
	}
	if req.CapWatts != nil {
		opts.Constraints.MaxWatts = *req.CapWatts
	}
	if req.MaxArea != nil {
		opts.Constraints.MaxArea = *req.MaxArea
	}

	ev := e.instrumentSearchEvaluator(ctx, job, NewSearchEvaluator(pd, req.Workers))
	rep, err := search.Run(ctx, ev, space, strategy, opts)
	switch {
	case err == nil:
		// Success wins even when a cancel raced the final evaluation:
		// the report is complete, so serve it.
		rep.Workload = req.Workload
		job.evals.Store(int64(rep.Evaluations))
		job.gens.Store(int64(rep.Generations))
		if e.fid != nil {
			// Fidelity escalation (the thesis's §7.4 workflow): the configs
			// a finished search recommends are exactly the ones worth a
			// reference simulation, so they bypass the sampling predicate.
			// They are queued before the job turns done.
			for _, ev := range rep.TopK(e.fid.opts.TopK) {
				e.forceFidelity(req.Workload, req.Options, space.At(ev.Index))
			}
		}
		finish(api.JobDone, "", rep)
	case ctx.Err() != nil:
		finish(api.JobCancelled, "", nil)
	default:
		finish(api.JobFailed, err.Error(), nil)
	}
}

// instrumentSearchEvaluator wraps a job's evaluator so every strategy
// generation is timed into the generation histogram, reflected in the
// evals-per-second gauge, and emitted as a "search.generation" span
// parented on the job's root span — the decomposition that lets a slow
// /v1/search be read out of the logs alone.
func (e *Engine) instrumentSearchEvaluator(ctx context.Context, job *searchJob, ev search.Evaluator) search.Evaluator {
	return func(c context.Context, configs []*Config) ([]search.Metrics, error) {
		_, span := obs.StartSpan(ctx, e.logger, job.rid, "search.generation")
		t := obs.StartTimer()
		out, err := ev(c, configs)
		secs := t.ObserveInto(e.metrics.searchGenSeconds)
		span.Finish()
		if secs > 0 {
			e.metrics.searchEvalsPerSec.Set(float64(len(configs)) / secs)
		}
		return out, err
	}
}

// SearchJob implements Searcher: a point-in-time snapshot of the job.
func (e *Engine) SearchJob(ctx context.Context, id string) (*api.SearchJobResponse, error) {
	job, ok := e.search.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &api.SearchJobResponse{SchemaVersion: api.SchemaVersion, Job: job.snapshot()}, nil
}

// CancelSearch implements Searcher: signal the job and wait for its
// goroutine to drain (cancellation is observed between configurations, so
// this is prompt), then return the final snapshot. Cancelling a finished
// job is a no-op returning its terminal state.
func (e *Engine) CancelSearch(ctx context.Context, id string) (*api.SearchJobResponse, error) {
	job, ok := e.search.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	job.cancel()
	select {
	case <-job.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &api.SearchJobResponse{SchemaVersion: api.SchemaVersion, Job: job.snapshot()}, nil
}

// Compile-time check: the in-process engine serves the async search surface
// the remote client mirrors.
var _ Searcher = (*Engine)(nil)
