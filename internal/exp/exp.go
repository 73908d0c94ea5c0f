// Package exp is the experiment harness: one function per table and figure
// of the paper's evaluation (Chapters 3-7), each regenerating the same rows
// or series the paper reports. The functions are shared by cmd/experiments
// and the top-level benchmark suite (bench_test.go).
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"mipp"
	"mipp/api"
	"mipp/arch"
	"mipp/internal/config"
	"mipp/internal/ooo"
	"mipp/internal/profiler"
	"mipp/internal/trace"
	"mipp/internal/workload"
)

// Suite memoizes workload streams, profiles and simulation results so the
// individual experiments can share them. Profiles and the predictors of
// every model variant live in a mipp.Engine — the same registry and
// (workload, api.PredictorSpec) predictor cache the mippd service runs on —
// so the paper's tables exercise the serving path.
type Suite struct {
	// N is the trace length in uops for reference-architecture
	// experiments; design-space sweeps use N/3.
	N int
	// Workloads is the benchmark subset to run (default: all 29).
	Workloads []string

	engine *mipp.Engine

	mu       sync.Mutex
	streams  map[string]*trace.Stream
	profiles map[string]*profiler.Profile
	sims     map[string]*ooo.Result
}

// NewSuite returns a Suite with the given trace length (0 = 300000).
func NewSuite(n int) *Suite {
	if n <= 0 {
		n = 300_000
	}
	return &Suite{
		N:         n,
		Workloads: workload.Names(),
		engine:    mipp.NewEngine(),
		streams:   make(map[string]*trace.Stream),
		profiles:  make(map[string]*profiler.Profile),
		sims:      make(map[string]*ooo.Result),
	}
}

// Engine exposes the suite's evaluation engine, with every workload touched
// so far registered under "name/n" keys.
func (s *Suite) Engine() *mipp.Engine { return s.engine }

// Stream returns the memoized trace of a workload at length n.
func (s *Suite) Stream(name string, n int) *trace.Stream {
	key := fmt.Sprintf("%s/%d", name, n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.streams[key]; ok {
		return st
	}
	st := workload.MustGenerate(name, n, 0)
	s.streams[key] = st
	return st
}

// Profile returns the memoized profile of a workload at length n.
func (s *Suite) Profile(name string, n int) *profiler.Profile {
	key := fmt.Sprintf("%s/%d", name, n)
	s.mu.Lock()
	if p, ok := s.profiles[key]; ok {
		s.mu.Unlock()
		return p
	}
	s.mu.Unlock()
	st := s.Stream(name, n)
	p := profiler.Run(st, profiler.Options{})
	s.mu.Lock()
	s.profiles[key] = p
	s.mu.Unlock()
	return p
}

// Predictor returns the engine-cached public-façade predictor of one model
// variant for a workload at length n, registering the memoized profile with
// the engine on first use. Evaluations through it exercise the exact code
// path external mipp users — and the mippd service — call.
func (s *Suite) Predictor(name string, n int, spec api.PredictorSpec) *mipp.Predictor {
	key := fmt.Sprintf("%s/%d", name, n)
	// Check-then-register under the suite lock so concurrent callers
	// cannot double-register (a re-register would invalidate the
	// just-compiled predictor). Profile() takes s.mu itself, so the
	// profile is materialized before the critical section.
	p := s.Profile(name, n)
	s.mu.Lock()
	if _, ok := s.engine.Profile(key); !ok {
		if err := s.engine.Register(key, mipp.WrapProfile(p)); err != nil {
			s.mu.Unlock()
			panic(fmt.Sprintf("exp: register %s: %v", key, err))
		}
	}
	s.mu.Unlock()
	pd, err := s.engine.Predictor(key, spec)
	if err != nil {
		panic(fmt.Sprintf("exp: predictor %s: %v", key, err))
	}
	return pd
}

// Predict evaluates one configuration with the default model.
func (s *Suite) Predict(name string, cfg *config.Config, n int) *mipp.Result {
	return s.PredictSpec(name, cfg, n, api.PredictorSpec{})
}

// PredictSpec evaluates one configuration with the model variant spec
// selects, through the façade, panicking on the errors the harness treats
// as programming mistakes.
func (s *Suite) PredictSpec(name string, cfg *config.Config, n int, spec api.PredictorSpec) *mipp.Result {
	res, err := s.Predictor(name, n, spec).Predict(cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: predict %s on %s: %v", name, cfg.Name, err))
	}
	return res
}

// Sweep evaluates a workload's predictor over many configurations through
// the public concurrent Sweep, so the paper's tables exercise the same
// batch-evaluation path external users call. results[i] matches configs[i].
func (s *Suite) Sweep(name string, configs []*config.Config, n int) []*mipp.Result {
	results, err := mipp.Sweep(context.Background(), s.Predictor(name, n, api.PredictorSpec{}), configs)
	if err != nil {
		panic(fmt.Sprintf("exp: sweep %s: %v", name, err))
	}
	return results
}

// Sim returns the memoized simulation of workload name on cfg at length n.
func (s *Suite) Sim(name string, cfg *config.Config, n int) *ooo.Result {
	key := fmt.Sprintf("%s/%s/%d", name, cfg.Name, n)
	s.mu.Lock()
	if r, ok := s.sims[key]; ok {
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()
	st := s.Stream(name, n)
	r, err := ooo.Simulate(cfg, st, ooo.Options{})
	if err != nil {
		panic(fmt.Sprintf("exp: simulate %s on %s: %v", name, cfg.Name, err))
	}
	s.mu.Lock()
	s.sims[key] = r
	s.mu.Unlock()
	return r
}

// Experiment is a registered table/figure generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Suite, w io.Writer)
}

var registry []Experiment

func register(id, title string, run func(*Suite, io.Writer)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by id.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// SpaceSample returns a stratified sample of the 243-point design space:
// every k-th configuration, which cycles through all parameter values
// because the enumeration is lexicographic.
func SpaceSample(k int) []*config.Config { return arch.DesignSpaceSample(k) }

// header prints a section header for experiment output.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s ==\n", title)
}
