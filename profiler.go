package mipp

import (
	"fmt"

	"mipp/internal/profiler"
	"mipp/internal/trace"
	"mipp/internal/workload"
)

// Stream is a workload's dynamic micro-op stream, the input to profiling and
// to the cycle-level reference simulator.
type Stream = trace.Stream

// Workloads returns the names of the built-in synthetic SPEC-like benchmark
// suite.
func Workloads() []string { return workload.Names() }

// DescribeWorkloads returns one human-readable line per built-in workload.
func DescribeWorkloads() []string { return workload.Describe() }

// GenerateWorkload synthesizes the dynamic micro-op stream of a built-in
// workload: n micro-ops with the given generator seed (0 selects the
// workload's default seed).
func GenerateWorkload(name string, n int, seed int64) (*Stream, error) {
	return workload.Generate(name, n, seed)
}

// Profiler runs the Architecture Independent Profiler (AIP): one pass over a
// workload's micro-op stream collects every micro-architecture independent
// statistic the analytical model needs. Profiling is the only expensive step
// of the pipeline; the resulting Profile is reused across arbitrarily many
// configurations.
//
// The zero value is ready to use with the paper's default sampling
// parameters; use NewProfiler with options to tune them.
type Profiler struct {
	opts profiler.Options
	seed int64
}

// ProfilerOption customizes a Profiler.
type ProfilerOption func(*Profiler)

// WithSeed sets the workload-generator seed used by Profiler.Profile
// (0 selects each workload's default seed).
func WithSeed(seed int64) ProfilerOption {
	return func(p *Profiler) { p.seed = seed }
}

// WithMicroTrace sets the micro-trace sampling parameters (§5.1): a detailed
// micro-trace of micro uops is profiled at the start of every window of
// window uops. Zero values select the defaults (1000-uop micro-traces, a
// window auto-sized to profile ~1% of the stream).
func WithMicroTrace(micro, window int) ProfilerOption {
	return func(p *Profiler) {
		p.opts.MicroUops = micro
		p.opts.WindowUops = window
	}
}

// NewProfiler returns a Profiler with the given options applied over the
// paper's defaults.
func NewProfiler(opts ...ProfilerOption) *Profiler {
	p := &Profiler{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Profile synthesizes workload name at n micro-ops and profiles it in one
// pass. The profile records that source, so Profile.Stream can rebuild the
// stream for the reference simulator.
func (pr *Profiler) Profile(name string, n int) (*Profile, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mipp: profile %s: non-positive trace length %d", name, n)
	}
	stream, err := workload.Generate(name, n, pr.seed)
	if err != nil {
		return nil, fmt.Errorf("mipp: profile: %w", err)
	}
	p := pr.ProfileStream(stream)
	p.raw.Source = &profiler.Source{Generator: name, Uops: n, Seed: pr.seed}
	return p, nil
}

// ProfileStream profiles an already-synthesized micro-op stream. The
// profile records no source, so Profile.Stream refuses it.
func (pr *Profiler) ProfileStream(s *Stream) *Profile {
	return &Profile{raw: profiler.Run(s, pr.opts)}
}
