package mipp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"mipp/api"
	"mipp/internal/profiler"
	"mipp/internal/workload"
)

// ProfileSchemaVersion is the JSON schema version written by Profile.Save
// and MarshalJSON. Loading rejects any other version so stale profiles fail
// loudly instead of silently mispredicting.
const ProfileSchemaVersion = 1

// Profile decoding errors. LoadProfile and the profile store wrap them with
// the offending file path, so test with errors.Is.
var (
	// ErrProfileCorrupt reports profile JSON that cannot be decoded:
	// malformed or truncated bytes, or an envelope with no profile body.
	ErrProfileCorrupt = errors.New("mipp: corrupt profile")
	// ErrProfileVersion reports a well-formed envelope whose
	// schema_version this build does not read.
	ErrProfileVersion = errors.New("mipp: unsupported profile schema version")
	// ErrNotReplayable reports a profile whose stream Profile.Stream
	// cannot rebuild.
	ErrNotReplayable = errors.New("mipp: profile stream not replayable")
)

// Profile is a serializable micro-architecture independent application
// profile: everything the analytical model needs to predict performance and
// power for any processor configuration, collected once per workload.
//
// Profiles round-trip through JSON with a versioned envelope
// ({"schema_version": 1, "profile": {...}}), so they can be collected by one
// process (or cmd/aip) and evaluated by another.
type Profile struct {
	raw *profiler.Profile
}

// WrapProfile adapts an already-collected internal profile to the public
// façade. Its parameter type lives under internal/, so it is only callable
// from within this module (the experiment harness); external callers obtain
// profiles from Profiler or LoadProfile.
func WrapProfile(p *profiler.Profile) *Profile { return &Profile{raw: p} }

// emptyProfile backs the accessors of a nil or never-filled Profile (e.g.
// after an ignored Unmarshal error), so they return zero values instead of
// panicking.
var emptyProfile profiler.Profile

func (p *Profile) body() *profiler.Profile {
	if p == nil || p.raw == nil {
		return &emptyProfile
	}
	return p.raw
}

// Workload returns the profiled workload's name.
func (p *Profile) Workload() string { return p.body().Workload }

// TotalUops returns the length of the profiled micro-op stream.
func (p *Profile) TotalUops() int64 { return p.body().TotalUops }

// TotalInstructions returns the macro-instruction count of the profiled
// stream.
func (p *Profile) TotalInstructions() int64 { return p.body().TotalInstrs }

// UopsPerInstruction returns the sampled CISC expansion ratio.
func (p *Profile) UopsPerInstruction() float64 { return p.body().UopsPerInstruction() }

// Entropy returns the linear branch entropy over the full stream (§3.5).
func (p *Profile) Entropy() float64 { return p.body().Entropy }

// MicroTraces returns the number of sampled micro-traces.
func (p *Profile) MicroTraces() int { return len(p.body().Micros) }

// LoadFrac returns the sampled fraction of uops that are loads.
func (p *Profile) LoadFrac() float64 { return p.body().LoadFrac() }

// StoreFrac returns the sampled fraction of uops that are stores.
func (p *Profile) StoreFrac() float64 { return p.body().StoreFrac() }

// BranchFrac returns the sampled fraction of uops that are branches.
func (p *Profile) BranchFrac() float64 { return p.body().BranchFrac() }

// Stream rebuilds the micro-op stream the profile was collected from, so the
// reference simulator measures the very stream the model was profiled on.
// Only Profiler.Profile records a stream's source. A profile without one, a
// source that asks for a length outside (0, api.MaxProfileUops] or names no
// built-in generator, and a source that does not regenerate the profiled
// uop and instruction counts all fail with ErrNotReplayable.
func (p *Profile) Stream() (*Stream, error) {
	b := p.body()
	src := b.Source
	if src == nil {
		return nil, fmt.Errorf("%w: profile %q records no source stream", ErrNotReplayable, b.Workload)
	}
	if src.Uops <= 0 || src.Uops > api.MaxProfileUops {
		return nil, fmt.Errorf("%w: profile %q source asks for %d uops (want 1..%d)",
			ErrNotReplayable, b.Workload, src.Uops, api.MaxProfileUops)
	}
	s, err := workload.Generate(src.Generator, src.Uops, src.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: profile %q: %v", ErrNotReplayable, b.Workload, err)
	}
	if uops, instrs := int64(s.Len()), int64(s.Instructions()); uops != b.TotalUops || instrs != b.TotalInstrs {
		return nil, fmt.Errorf("%w: profile %q source regenerates %d uops and %d instructions, profiled %d and %d",
			ErrNotReplayable, b.Workload, uops, instrs, b.TotalUops, b.TotalInstrs)
	}
	return s, nil
}

// profileEnvelope is the versioned JSON wire format.
type profileEnvelope struct {
	SchemaVersion int               `json:"schema_version"`
	Profile       *profiler.Profile `json:"profile"`
}

// MarshalJSON encodes the profile inside the versioned envelope.
func (p *Profile) MarshalJSON() ([]byte, error) {
	if p.raw == nil {
		return nil, fmt.Errorf("mipp: marshal of empty profile")
	}
	return json.Marshal(profileEnvelope{SchemaVersion: ProfileSchemaVersion, Profile: p.raw})
}

// UnmarshalJSON decodes a versioned profile envelope, rejecting unknown or
// missing schema versions.
func (p *Profile) UnmarshalJSON(data []byte) error {
	var env profileEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("%w: decode envelope: %v", ErrProfileCorrupt, err)
	}
	if env.SchemaVersion != ProfileSchemaVersion {
		return fmt.Errorf("%w %d (this build reads version %d)",
			ErrProfileVersion, env.SchemaVersion, ProfileSchemaVersion)
	}
	if env.Profile == nil {
		return fmt.Errorf("%w: envelope has no profile body", ErrProfileCorrupt)
	}
	p.raw = env.Profile
	return nil
}

// Save writes the profile to path as versioned JSON.
func (p *Profile) Save(path string) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// DecodeProfile decodes a versioned profile envelope. Every failure wraps
// ErrProfileCorrupt or ErrProfileVersion — including syntax errors raised
// by encoding/json before the envelope decoder runs — so callers can
// distinguish "bad bytes" from "wrong schema generation" with errors.Is.
func DecodeProfile(data []byte) (*Profile, error) {
	p := &Profile{}
	if err := json.Unmarshal(data, p); err != nil {
		if !errors.Is(err, ErrProfileCorrupt) && !errors.Is(err, ErrProfileVersion) {
			err = fmt.Errorf("%w: %v", ErrProfileCorrupt, err)
		}
		return nil, err
	}
	return p, nil
}

// LoadProfile reads a versioned profile JSON file written by Save (or
// cmd/aip). Decoding failures wrap ErrProfileCorrupt or ErrProfileVersion
// and name the offending file.
func LoadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := DecodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("mipp: load profile %s: %w", path, err)
	}
	return p, nil
}
