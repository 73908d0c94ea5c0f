// Package api defines the versioned wire protocol of the mipp evaluation
// service: the JSON request/response DTOs spoken by the in-process
// mipp.Engine, the mippd HTTP daemon and the mipp/client remote client.
//
// Every request and response carries a schema_version field. Peers reject
// versions they do not understand rather than mispredict silently — the same
// contract mipp.Profile uses for its serialized form. The DTOs are plain
// data: all model evaluation happens behind the mipp.Evaluator interface,
// whose local and remote implementations both speak these types, which is
// what makes in-process and over-the-wire evaluation byte-identical.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"mipp/arch"
)

// SchemaVersion is the wire-protocol version spoken by this build. It covers
// every request/response DTO in this package; any field addition that
// changes the meaning of existing fields must bump it.
const SchemaVersion = 1

// CheckVersion validates a peer's schema_version field.
func CheckVersion(got int) error {
	if got != SchemaVersion {
		return fmt.Errorf("api: unsupported schema version %d (this build speaks %d)", got, SchemaVersion)
	}
	return nil
}

// DecodeRequest decodes one request DTO from r as strictly as the service
// does: unknown fields, and anything but whitespace after the value, are
// errors. An error reading r, such as a body-size limit, stays matchable
// with errors.As, so callers can tell "shrink the upload" from "fix the
// JSON".
func DecodeRequest(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	var syntax *json.SyntaxError
	switch _, err := dec.Token(); {
	case errors.Is(err, io.EOF):
		return nil
	case err == nil, errors.As(err, &syntax):
		return errors.New("trailing data after request body")
	default:
		return err
	}
}

// ConfigSpec names one processor configuration to evaluate: either a stock
// configuration by name ("reference", "reference+pf", "lowpower") or a
// complete inline description. Exactly one of the two must be set.
type ConfigSpec struct {
	// Name selects a stock configuration (see arch.ByName).
	Name string `json:"name,omitempty"`
	// Config is a complete inline processor description.
	Config *arch.Config `json:"config,omitempty"`
}

// Resolve returns the processor configuration the spec denotes.
func (cs ConfigSpec) Resolve() (*arch.Config, error) {
	switch {
	case cs.Config != nil && cs.Name != "":
		return nil, fmt.Errorf("api: config spec sets both name %q and an inline config", cs.Name)
	case cs.Config != nil:
		return cs.Config, nil
	case cs.Name != "":
		if c, ok := arch.ByName(cs.Name); ok {
			return c, nil
		}
		return nil, fmt.Errorf("api: unknown stock config %q", cs.Name)
	}
	return nil, fmt.Errorf("api: empty config spec (need name or config)")
}

// SpaceSpec expands to a family of configurations server-side, so sweeping
// the paper's design space does not require shipping 243 inline configs —
// and, in its "parametric" form, names combinatorially large spaces that
// are never shipped at all.
type SpaceSpec struct {
	// Kind selects the family: "design" (the 3^5 space of Table 6.3),
	// "dvfs" (the reference core at each Table 7.2 operating point) or
	// "parametric" (an explicit lazy arch.Space in the Space field).
	Kind string `json:"kind"`
	// Stride samples every stride-th configuration of the "design" or
	// "parametric" enumeration (<= 1 keeps all).
	Stride int `json:"stride,omitempty"`
	// Space is the axes of a "parametric" space. Search requests walk it
	// lazily; sweep/batch/pareto requests materialize it and are bounded
	// by MaxMaterializedSpace.
	Space *arch.Space `json:"space,omitempty"`
}

// MaxMaterializedSpace bounds how many configurations a parametric space
// may expand to on the synchronous sweep/batch/pareto paths. Larger spaces
// must go through /v1/search, which never materializes them.
const MaxMaterializedSpace = 1 << 16

// Expand enumerates the configuration family: every kind resolves to its
// lazy space, which is then materialized at the stride. Materializing
// through the same enumeration the lazy (search) path walks keeps the two
// paths agreeing on configuration names, so results join across endpoints.
func (s SpaceSpec) Expand() ([]*arch.Config, error) {
	if s.Stride < 0 {
		return nil, fmt.Errorf("api: negative space stride %d", s.Stride)
	}
	switch s.Kind {
	case "design", "parametric":
	case "dvfs":
		if s.Stride != 0 || s.Space != nil {
			return nil, fmt.Errorf("api: stride and space axes are not valid for kind %q", s.Kind)
		}
	default:
		// Checked before Lazy, which would report stray axes first.
		return nil, errUnknownSpace(s.Kind)
	}
	lazy := s
	lazy.Stride = 0
	sp, err := lazy.Lazy()
	if err != nil {
		return nil, err
	}
	stride := max(s.Stride, 1)
	n := sp.Size()
	if (n+stride-1)/stride > MaxMaterializedSpace {
		return nil, fmt.Errorf("api: parametric space has %d points (max %d materialized); submit it to /v1/search instead", n, MaxMaterializedSpace)
	}
	out := make([]*arch.Config, 0, (n+stride-1)/stride)
	for i := 0; i < n; i += stride {
		out = append(out, sp.At(i))
	}
	return out, nil
}

// Lazy returns the spec as a parametric space without materializing it —
// the form the search subsystem walks. Stride is rejected for every kind:
// a search strategy owns its own sampling.
func (s SpaceSpec) Lazy() (*arch.Space, error) {
	if s.Stride != 0 {
		return nil, fmt.Errorf("api: stride is not valid for a lazy space (a search strategy owns its sampling)")
	}
	if s.Space != nil && s.Kind != "parametric" {
		return nil, fmt.Errorf("api: space axes are only valid for the parametric kind, not %q", s.Kind)
	}
	switch s.Kind {
	case "design":
		return arch.TableSpace(), nil
	case "dvfs":
		return arch.DVFSSpace(), nil
	case "parametric":
		if s.Space == nil {
			return nil, fmt.Errorf("api: parametric space spec has no axes")
		}
		if err := s.Space.Validate(); err != nil {
			return nil, err
		}
		return s.Space, nil
	}
	return nil, errUnknownSpace(s.Kind)
}

func errUnknownSpace(kind string) error {
	return fmt.Errorf("api: unknown config space %q (want design, dvfs or parametric)", kind)
}

// ExpandConfigs resolves explicit specs and appends the optional space
// expansion — the shared config vocabulary of sweep, batch and Pareto
// requests.
func ExpandConfigs(specs []ConfigSpec, space *SpaceSpec) ([]*arch.Config, error) {
	out := make([]*arch.Config, 0, len(specs))
	for i, cs := range specs {
		c, err := cs.Resolve()
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		out = append(out, c)
	}
	if space != nil {
		family, err := space.Expand()
		if err != nil {
			return nil, err
		}
		out = append(out, family...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("api: no configurations (need configs or space)")
	}
	return out, nil
}

// PredictorSpec is the serializable form of the mipp.Predictor options: it
// selects model variants and ablations per request. The zero value is the
// paper's default model. Engines key their predictor caches on Key(), so
// requests with equal specs share one compiled predictor.
type PredictorSpec struct {
	// MLPMode selects the memory-level-parallelism model: "" or "stride"
	// (default), "cold-miss", "none".
	MLPMode string `json:"mlp_mode,omitempty"`
	// Combined evaluates one averaged profile instead of per-micro-trace
	// evaluation (the ISPASS-2015 baseline, Figure 6.4).
	Combined bool `json:"combined,omitempty"`
	// BranchMissRate overrides the entropy model with a fixed per-branch
	// misprediction rate.
	BranchMissRate *float64 `json:"branch_miss_rate,omitempty"`
	// NoLLCChain disables the chained-LLC-hit penalty (§4.8 ablation).
	NoLLCChain bool `json:"no_llc_chain,omitempty"`
	// NoBusQueue disables the memory-bus queuing delay (§4.7 ablation).
	NoBusQueue bool `json:"no_bus_queue,omitempty"`
	// DispatchModel restricts the effective-dispatch-rate terms: "" or
	// "full" (default), "instructions", "uops", "critical".
	DispatchModel string `json:"dispatch_model,omitempty"`
	// Prefetcher forces the stride prefetcher on or off for every
	// evaluated configuration, overriding the configuration's setting.
	Prefetcher *bool `json:"prefetcher,omitempty"`
}

// MLP mode and dispatch model wire names.
var (
	mlpModes       = map[string]bool{"": true, "stride": true, "cold-miss": true, "none": true}
	dispatchModels = map[string]bool{"": true, "full": true, "instructions": true, "uops": true, "critical": true}
)

// Validate rejects unknown mode names early, with the full accepted set in
// the message.
func (s PredictorSpec) Validate() error {
	if !mlpModes[s.MLPMode] {
		return fmt.Errorf("api: unknown mlp_mode %q (want %s)", s.MLPMode, nameList(mlpModes))
	}
	if !dispatchModels[s.DispatchModel] {
		return fmt.Errorf("api: unknown dispatch_model %q (want %s)", s.DispatchModel, nameList(dispatchModels))
	}
	return nil
}

func nameList(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for n := range set {
		if n != "" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Key returns a canonical cache key: two specs denoting the same predictor
// always produce the same key, regardless of how their JSON was spelled.
// The key is the JSON encoding of the normalized spec (defaults filled in),
// so fields added to PredictorSpec participate automatically instead of
// silently colliding distinct option sets in the predictor cache.
func (s PredictorSpec) Key() string {
	if s.MLPMode == "" {
		s.MLPMode = "stride"
	}
	if s.DispatchModel == "" {
		s.DispatchModel = "full"
	}
	key, err := json.Marshal(s)
	if err != nil {
		// PredictorSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("api: marshal predictor spec: %v", err))
	}
	return string(key)
}

// CPIStack attributes predicted cycles to the CPI components of Figure 6.1.
type CPIStack struct {
	Base   float64 `json:"base"`
	Branch float64 `json:"branch"`
	ICache float64 `json:"icache"`
	LLCHit float64 `json:"llc"`
	DRAM   float64 `json:"dram"`
}

// PowerStack is the predicted power breakdown in watts (Figure 6.7).
type PowerStack struct {
	Static float64 `json:"static"`
	Core   float64 `json:"core"`
	FU     float64 `json:"fu"`
	Cache  float64 `json:"cache"`
	DRAM   float64 `json:"dram"`
	BPred  float64 `json:"bpred"`
}

// Result is one complete prediction on the wire: the model outputs plus
// every derived metric, so clients need no model knowledge to consume it.
type Result struct {
	Workload     string  `json:"workload"`
	Config       string  `json:"config"`
	FrequencyGHz float64 `json:"frequency_ghz"`

	Cycles       float64 `json:"cycles"`
	Uops         float64 `json:"uops"`
	Instructions float64 `json:"instructions"`
	CPI          float64 `json:"cpi"`
	TimeSeconds  float64 `json:"time_seconds"`

	CPIStack CPIStack   `json:"cpi_stack"`
	Power    PowerStack `json:"power"`

	Watts        float64 `json:"watts"`
	EnergyJoules float64 `json:"energy_joules"`
	EDP          float64 `json:"edp"`
	ED2P         float64 `json:"ed2p"`

	Deff           float64 `json:"deff"`
	MLP            float64 `json:"mlp"`
	BranchMissRate float64 `json:"branch_miss_rate"`

	// MicroCPI is the per-micro-trace CPI for phase analysis; populated
	// only when the request asks for it.
	MicroCPI []float64 `json:"micro_cpi,omitempty"`
}

// Point is one design on the (time, power) plane; lower is better in both.
type Point struct {
	Config      string  `json:"config"`
	TimeSeconds float64 `json:"time_seconds"`
	Watts       float64 `json:"watts"`
}

// ItemError reports one failed configuration inside an otherwise successful
// batch.
type ItemError struct {
	// Index is the position in the expanded configuration list.
	Index int `json:"index"`
	// Config is the configuration's name, when it has one.
	Config string `json:"config,omitempty"`
	Error  string `json:"error"`
}

// PredictRequest evaluates one (workload, configuration) pair.
type PredictRequest struct {
	SchemaVersion int           `json:"schema_version"`
	Workload      string        `json:"workload"`
	Config        ConfigSpec    `json:"config"`
	Options       PredictorSpec `json:"options"`
	// MicroCPI asks for the per-micro-trace CPI series.
	MicroCPI bool `json:"micro_cpi,omitempty"`
}

// Validate checks version and shape; config resolution happens server-side.
func (r *PredictRequest) Validate() error {
	if err := CheckVersion(r.SchemaVersion); err != nil {
		return err
	}
	if r.Workload == "" {
		return fmt.Errorf("api: predict request has no workload")
	}
	return r.Options.Validate()
}

// PredictResponse carries one prediction.
type PredictResponse struct {
	SchemaVersion int     `json:"schema_version"`
	Result        *Result `json:"result"`
}

// SweepRequest evaluates one workload over many configurations.
type SweepRequest struct {
	SchemaVersion int           `json:"schema_version"`
	Workload      string        `json:"workload"`
	Configs       []ConfigSpec  `json:"configs,omitempty"`
	Space         *SpaceSpec    `json:"space,omitempty"`
	Options       PredictorSpec `json:"options"`
	// Workers caps the evaluation worker pool (0 = engine default).
	Workers int `json:"workers,omitempty"`
}

// Validate checks version and shape.
func (r *SweepRequest) Validate() error {
	if err := CheckVersion(r.SchemaVersion); err != nil {
		return err
	}
	if r.Workload == "" {
		return fmt.Errorf("api: sweep request has no workload")
	}
	if len(r.Configs) == 0 && r.Space == nil {
		return fmt.Errorf("api: sweep request has no configurations")
	}
	return r.Options.Validate()
}

// SweepResponse carries per-config results aligned with the expanded
// configuration list: results[i] is nil exactly when errors mentions index
// i, so partial failures do not discard the rest of the sweep.
type SweepResponse struct {
	SchemaVersion int         `json:"schema_version"`
	Workload      string      `json:"workload"`
	Results       []*Result   `json:"results"`
	Errors        []ItemError `json:"errors,omitempty"`
}

// BatchRequest is the engine's native unit of work: the cross product of
// workloads × configurations under one option set, evaluated by one worker
// pool with per-item error reporting.
type BatchRequest struct {
	SchemaVersion int           `json:"schema_version"`
	Workloads     []string      `json:"workloads"`
	Configs       []ConfigSpec  `json:"configs,omitempty"`
	Space         *SpaceSpec    `json:"space,omitempty"`
	Options       PredictorSpec `json:"options"`
	Workers       int           `json:"workers,omitempty"`
}

// Validate checks version and shape.
func (r *BatchRequest) Validate() error {
	if err := CheckVersion(r.SchemaVersion); err != nil {
		return err
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("api: batch request has no workloads")
	}
	for i, w := range r.Workloads {
		if w == "" {
			return fmt.Errorf("api: batch request workload %d is empty", i)
		}
	}
	if len(r.Configs) == 0 && r.Space == nil {
		return fmt.Errorf("api: batch request has no configurations")
	}
	return r.Options.Validate()
}

// BatchItem is one (workload, configuration) outcome; exactly one of Result
// and Error is set.
type BatchItem struct {
	Workload string  `json:"workload"`
	Config   string  `json:"config,omitempty"`
	Result   *Result `json:"result,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// BatchResponse lists items in row-major order: all configurations of
// workloads[0] first, then workloads[1], and so on — len(Items) is always
// len(workloads) × len(expanded configs).
type BatchResponse struct {
	SchemaVersion int         `json:"schema_version"`
	Items         []BatchItem `json:"items"`
}

// ParetoRequest sweeps one workload and extracts design-space decisions:
// the Pareto frontier, and optionally the fastest design under a power cap
// (Table 7.1) and the ED²P-optimal design (§7.3).
type ParetoRequest struct {
	SchemaVersion int           `json:"schema_version"`
	Workload      string        `json:"workload"`
	Configs       []ConfigSpec  `json:"configs,omitempty"`
	Space         *SpaceSpec    `json:"space,omitempty"`
	Options       PredictorSpec `json:"options"`
	// CapWatts, when set, also reports the fastest design within the cap.
	CapWatts *float64 `json:"cap_watts,omitempty"`
	Workers  int      `json:"workers,omitempty"`
}

// Validate checks version and shape.
func (r *ParetoRequest) Validate() error {
	if err := CheckVersion(r.SchemaVersion); err != nil {
		return err
	}
	if r.Workload == "" {
		return fmt.Errorf("api: pareto request has no workload")
	}
	if len(r.Configs) == 0 && r.Space == nil {
		return fmt.Errorf("api: pareto request has no configurations")
	}
	return r.Options.Validate()
}

// ParetoResponse carries the swept points and the extracted decisions.
type ParetoResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Workload      string `json:"workload"`
	// Points holds every successfully evaluated design.
	Points []Point `json:"points"`
	// Front is the non-dominated subset, sorted by time.
	Front []Point `json:"front"`
	// BestUnderCap is the fastest design within cap_watts (nil when no
	// cap was given or nothing fits).
	BestUnderCap *Point `json:"best_under_cap,omitempty"`
	// BestByED2P minimizes energy-delay-squared.
	BestByED2P *Point      `json:"best_by_ed2p,omitempty"`
	Errors     []ItemError `json:"errors,omitempty"`
}

// WorkloadInfo summarizes one registered profile.
type WorkloadInfo struct {
	Name         string  `json:"name"`
	Workload     string  `json:"workload"`
	Uops         int64   `json:"uops"`
	Instructions int64   `json:"instructions"`
	Entropy      float64 `json:"entropy"`
	MicroTraces  int     `json:"micro_traces"`
}

// WorkloadsResponse lists registered profiles sorted by name.
type WorkloadsResponse struct {
	SchemaVersion int            `json:"schema_version"`
	Workloads     []WorkloadInfo `json:"workloads"`
}

// RegisterProfileRequest registers a workload profile with an engine:
// either an inline pre-collected profile (the versioned envelope written by
// mipp.Profile.Save / cmd/aip) or a built-in workload the server profiles
// itself. Exactly one of Profile and Workload must be set.
type RegisterProfileRequest struct {
	SchemaVersion int `json:"schema_version"`
	// Name registers the profile under this name; empty defaults to the
	// profile's workload name.
	Name string `json:"name,omitempty"`
	// Profile is an inline versioned profile envelope.
	Profile json.RawMessage `json:"profile,omitempty"`
	// Workload names a built-in workload for server-side profiling.
	Workload string `json:"workload,omitempty"`
	// Uops is the trace length for server-side profiling, at most
	// MaxProfileUops.
	Uops int `json:"uops,omitempty"`
	// Seed is the workload-generator seed (0 = the workload's default).
	Seed int64 `json:"seed,omitempty"`
}

// MaxProfileUops bounds the trace length of server-side profiling. The
// generator allocates the whole stream up front (about 190 MB at this
// bound), so an unbounded count lets one request exhaust the server's
// memory. Longer traces are profiled offline (cmd/aip) and registered as
// an inline profile.
const MaxProfileUops = 1 << 22

// Validate checks version, that exactly one source is given, and that a
// server-side trace length is in (0, MaxProfileUops].
func (r *RegisterProfileRequest) Validate() error {
	if err := CheckVersion(r.SchemaVersion); err != nil {
		return err
	}
	switch {
	case len(r.Profile) > 0 && r.Workload != "":
		return fmt.Errorf("api: register request sets both an inline profile and workload %q", r.Workload)
	case len(r.Profile) > 0:
		return nil
	case r.Workload != "":
		if r.Uops <= 0 {
			return fmt.Errorf("api: register request for %q needs a positive uops count", r.Workload)
		}
		if r.Uops > MaxProfileUops {
			return fmt.Errorf("api: register request for %q asks for %d uops (max %d profiled server-side); profile longer traces offline with cmd/aip and register the profile inline", r.Workload, r.Uops, MaxProfileUops)
		}
		return nil
	}
	return fmt.Errorf("api: register request has neither profile nor workload")
}

// RegisterProfileResponse acknowledges a registration.
type RegisterProfileResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	Workload      string `json:"workload"`
	Uops          int64  `json:"uops"`
}

// ProfileInfo is one registered profile's metadata, served by
// GET /v1/profiles/{name}. Digest is the content address of the profile's
// canonical schema-v1 JSON envelope ("sha256:" + hex), identical whether
// the profile lives in memory or in a store — so replicas sharing a store
// (or a client re-uploading) can compare catalogs by digest alone.
type ProfileInfo struct {
	Name         string  `json:"name"`
	Workload     string  `json:"workload"`
	Digest       string  `json:"digest"`
	SizeBytes    int64   `json:"size_bytes"`
	Uops         int64   `json:"uops"`
	Instructions int64   `json:"instructions"`
	Entropy      float64 `json:"entropy"`
	MicroTraces  int     `json:"micro_traces"`
	// Resident reports whether the decoded profile is currently held in
	// memory (always true without a store; false after LRU eviction —
	// the next evaluation reloads it transparently).
	Resident bool `json:"resident"`
}

// ProfileInfoResponse carries one profile's metadata.
type ProfileInfoResponse struct {
	SchemaVersion int         `json:"schema_version"`
	Profile       ProfileInfo `json:"profile"`
}

// DeleteProfileResponse acknowledges DELETE /v1/profiles/{name}; a missing
// name is a 404 error envelope instead.
type DeleteProfileResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	Deleted       bool   `json:"deleted"`
}

// ErrorResponse is the uniform error envelope of the HTTP service.
type ErrorResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
}
