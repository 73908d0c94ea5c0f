package mipp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mipp/api"
	"mipp/fidelity"
	"mipp/obs"
)

// FidelityOptions configures the engine's background fidelity sampler: a
// deterministic sample of the (workload, config) pairs the engine serves is
// re-evaluated against the cycle-level reference simulator, and the signed
// residuals land in a fidelity.Recorder.
type FidelityOptions struct {
	// Seed drives the sampling decision only: the default ground truth
	// replays each profile's own stream (Profile.Stream). The same seed over
	// the same served set selects the same configs, whatever the
	// concurrency.
	Seed int64
	// SampleEvery selects roughly one served (workload, config) pair in
	// every SampleEvery by deterministic hash (<= 1 samples everything;
	// 0 defaults to 16).
	SampleEvery int
	// Budget caps ground-truth simulations over the engine's lifetime
	// (0 defaults to 256; negative = unlimited). Reference runs cost
	// ~10^5 times an analytical evaluation — the cap is what makes
	// sampling safe to leave on.
	Budget int
	// MaxPerSecond rate-limits ground-truth runs (0 = unlimited): the
	// worker sleeps between simulations so sampling never competes with
	// serving for more than its share.
	MaxPerSecond float64
	// WorstN is how many worst samples a report keeps (0 defaults to 5).
	WorstN int
	// TopK is how many of a finished search's recommended configurations
	// are escalated past the sampling predicate (0 defaults to 3;
	// negative disables escalation).
	TopK int
	// Queue bounds the sampler's backlog (0 defaults to 64); offers
	// beyond it are counted as dropped, never blocked on.
	Queue int
	// GroundTruth overrides the reference evaluator (nil = the built-in
	// cycle-level simulator over the engine's own profiles).
	GroundTruth fidelity.GroundTruth
}

func (o *FidelityOptions) withDefaults() FidelityOptions {
	d := *o
	if d.SampleEvery == 0 {
		d.SampleEvery = 16
	}
	if d.Budget == 0 {
		d.Budget = 256
	}
	if d.WorstN == 0 {
		d.WorstN = 5
	}
	if d.TopK == 0 {
		d.TopK = 3
	}
	if d.Queue <= 0 {
		d.Queue = 64
	}
	return d
}

// WithFidelitySampling enables the fidelity observatory on the engine:
// served configurations are sampled, re-run on the ground truth, and their
// residuals aggregated into FidelityReport and the mipp_fidelity_* metrics.
// The engine owns a background worker; call Close to stop it.
func WithFidelitySampling(opts FidelityOptions) EngineOption {
	return func(e *Engine) { e.fidOpts = &opts }
}

// fidelityJob is one queued ground-truth comparison.
type fidelityJob struct {
	workload string
	spec     api.PredictorSpec
	cfg      *Config
	digest   string
}

// fidelitySampler owns the fidelity recorder, the deterministic sampling
// decision, and the single background worker that runs ground-truth
// simulations. Offers are cheap and non-blocking — the serving paths call
// offer after every successful prediction; everything expensive happens on
// the worker.
type fidelitySampler struct {
	e    *Engine
	opts FidelityOptions
	rec  *fidelity.Recorder
	gt   fidelity.GroundTruth

	ctx      context.Context
	cancel   context.CancelFunc
	queue    chan fidelityJob
	done     chan struct{}
	stopOnce sync.Once

	// budget counts remaining ground-truth runs; claimed at enqueue so
	// the queue never holds more work than the budget allows.
	budget atomic.Int64
	// pending counts enqueued-but-unrecorded jobs, for flush.
	pending atomic.Int64

	// seen dedupes offers by digest: a config served a million times costs
	// one simulation. Its size is bounded by the budget.
	mu   sync.Mutex
	seen map[string]bool

	offered obs.Counter // selected by the sampling predicate
	dropped obs.Counter // selected but lost to a full queue

	simSeconds *obs.Histogram // ground-truth run duration
}

// newFidelitySampler wires the sampler and starts its worker.
func newFidelitySampler(e *Engine, opts FidelityOptions) *fidelitySampler {
	opts = opts.withDefaults()
	s := &fidelitySampler{
		e:          e,
		opts:       opts,
		rec:        fidelity.NewRecorder(),
		gt:         opts.GroundTruth,
		queue:      make(chan fidelityJob, opts.Queue),
		done:       make(chan struct{}),
		seen:       make(map[string]bool),
		simSeconds: obs.NewHistogram(obs.DefBuckets...),
	}
	if s.gt == nil {
		s.gt = NewSimGroundTruth(e)
	}
	if opts.Budget > 0 {
		s.budget.Store(int64(opts.Budget))
	} else {
		s.budget.Store(1 << 60) // negative Budget: effectively unlimited
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	go s.run()
	return s
}

// offer proposes one successfully served (workload, config) pair. The
// not-sampled path is allocation-free: one hash over two short strings.
func (s *fidelitySampler) offer(workload string, spec api.PredictorSpec, cfg *Config) {
	if cfg == nil || s.budget.Load() <= 0 {
		return
	}
	if !fidelity.Sampled(s.opts.Seed, workload, cfg.Name, s.opts.SampleEvery) {
		return
	}
	s.force(workload, spec, cfg)
}

// force enqueues regardless of the sampling predicate — the search
// escalation path uses it for top-K report configs. Digest-level dedupe
// and the budget still apply.
func (s *fidelitySampler) force(workload string, spec api.PredictorSpec, cfg *Config) {
	if cfg == nil {
		return
	}
	digest := fidelity.Digest(workload, spec.Key(), cfg)
	s.mu.Lock()
	if s.seen[digest] {
		s.mu.Unlock()
		return
	}
	s.seen[digest] = true
	s.mu.Unlock()
	if s.budget.Add(-1) < 0 {
		return
	}
	s.offered.Inc()
	job := fidelityJob{workload: workload, spec: spec, cfg: cfg, digest: digest}
	s.pending.Add(1)
	select {
	case s.queue <- job:
	default:
		// Never block a serving path on the sampler. Drops are visible
		// (mipp_fidelity_dropped_total) so an operator can tell a quiet
		// report from a starved one.
		s.pending.Add(-1)
		s.dropped.Inc()
	}
}

// run is the background worker: one ground-truth simulation at a time,
// rate-limited, until Close.
func (s *fidelitySampler) run() {
	defer close(s.done)
	var interval time.Duration
	if s.opts.MaxPerSecond > 0 {
		interval = time.Duration(float64(time.Second) / s.opts.MaxPerSecond)
	}
	for {
		select {
		case <-s.ctx.Done():
			// Drain pending counts so flush never hangs on shutdown.
			for {
				select {
				case <-s.queue:
					s.pending.Add(-1)
				default:
					return
				}
			}
		case job := <-s.queue:
			s.sample(job)
			s.pending.Add(-1)
			if interval > 0 {
				select {
				case <-s.ctx.Done():
				case <-time.After(interval):
				}
			}
		}
	}
}

// sample runs one comparison: re-predict through the cached predictor,
// simulate on the ground truth, record the pair.
func (s *fidelitySampler) sample(job fidelityJob) {
	pd, err := s.e.predictor(s.ctx, job.workload, job.spec)
	if err != nil {
		s.rec.RecordFailure()
		s.e.logf("fidelity: predictor %q: %v", job.workload, err)
		return
	}
	res, err := pd.Predict(job.cfg)
	if err != nil {
		s.rec.RecordFailure()
		s.e.logf("fidelity: predict %q/%q: %v", job.workload, job.cfg.Name, err)
		return
	}
	t := obs.StartTimer()
	sim, err := s.gt.GroundTruth(s.ctx, job.workload, job.cfg)
	t.ObserveInto(s.simSeconds)
	if err != nil {
		s.rec.RecordFailure()
		s.e.logf("fidelity: ground truth %q/%q: %v", job.workload, job.cfg.Name, err)
		return
	}
	s.rec.Record(fidelity.Pair{
		Workload: job.workload,
		Config:   job.cfg.Name,
		Digest:   job.digest,
		Model:    ModelMeasurement(res),
		Sim:      sim,
	})
}

// flush waits until every enqueued job has been recorded (or ctx expires).
func (s *fidelitySampler) flush(ctx context.Context) error {
	for s.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.ctx.Done():
			return nil
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// stop cancels the worker and waits for it to exit.
func (s *fidelitySampler) stop() {
	s.cancel()
	<-s.done
}

// offerFidelity is the engine-side hook the serving paths call after a
// successful prediction; a nil sampler (the default) costs one branch.
func (e *Engine) offerFidelity(workload string, spec api.PredictorSpec, cfg *Config) {
	if e.fid != nil {
		e.fid.offer(workload, spec, cfg)
	}
}

// forceFidelity escalates one config past the sampling predicate (search
// top-K escalation).
func (e *Engine) forceFidelity(workload string, spec api.PredictorSpec, cfg *Config) {
	if e.fid != nil {
		e.fid.force(workload, spec, cfg)
	}
}

// FidelityEnabled reports whether the engine runs a fidelity sampler.
func (e *Engine) FidelityEnabled() bool { return e.fid != nil }

// FidelityStats returns the cheap aggregate fidelity view for health
// endpoints; nil when sampling is disabled.
func (e *Engine) FidelityStats() *fidelity.Stats {
	if e.fid == nil {
		return nil
	}
	st := e.fid.rec.Stats()
	return &st
}

// FidelityReport assembles the deterministic fidelity report. wait flushes
// the sampler's queue first, so a caller that just served a batch reads a
// report covering it. Returns (nil, nil) when sampling is disabled.
func (e *Engine) FidelityReport(ctx context.Context, wait bool) (*fidelity.Report, error) {
	if e.fid == nil {
		return nil, nil
	}
	if wait {
		if err := e.fid.flush(ctx); err != nil {
			return nil, fmt.Errorf("mipp: fidelity flush: %w", err)
		}
	}
	rep := e.fid.rec.Report(e.fid.opts.WorstN)
	return &rep, nil
}

// Close stops the engine's background workers (today: the fidelity
// sampler). It is safe to call on an engine without one, and safe to call
// more than once.
func (e *Engine) Close() {
	if e.fid != nil {
		e.fid.stopOnce.Do(e.fid.stop)
	}
}
