package api

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"mipp/arch"
)

func TestCheckVersion(t *testing.T) {
	if err := CheckVersion(SchemaVersion); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	for _, v := range []int{0, -1, SchemaVersion + 1, 99} {
		if err := CheckVersion(v); err == nil {
			t.Errorf("version %d accepted", v)
		}
	}
}

func TestDecodeRequest(t *testing.T) {
	const req = `{"schema_version":1,"workloads":["mcf"],"configs":[{"name":"reference"}],"options":{}}`
	for _, c := range []struct {
		name, body, wantErr string
	}{
		{"exact", req, ""},
		{"trailing whitespace", req + " \n", ""},
		{"malformed", `{"schema_version":1,`, "decode request"},
		{"unknown field", strings.Replace(req, `"options"`, `"turbo":true,"options"`, 1), "unknown field"},
		{"unknown inline config field", strings.Replace(req, `{"name":"reference"}`, `{"config":{"Name":"x","width":4}}`, 1), "unknown field"},
		{"trailing value", req + " {}", "trailing data"},
		{"trailing garbage", req + " x", "trailing data"},
	} {
		var got BatchRequest
		err := DecodeRequest(strings.NewReader(c.body), &got)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		//mipp:allow wraperr these errors have no sentinel; their messages are what a client sees
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}

	// A read failure after the value is the reader's error, not "trailing
	// data": the server maps a body-size limit hit there to 413.
	limit := errors.New("body limit")
	var got BatchRequest
	if err := DecodeRequest(io.MultiReader(strings.NewReader(req), iotest.ErrReader(limit)), &got); !errors.Is(err, limit) {
		t.Errorf("read error after the value: got %v, want %v", err, limit)
	}
}

func TestPredictorSpecKeyCanonical(t *testing.T) {
	// Spelled-out defaults and the zero value share a cache key.
	zero := PredictorSpec{}
	spelled := PredictorSpec{MLPMode: "stride", DispatchModel: "full"}
	if zero.Key() != spelled.Key() {
		t.Errorf("zero key %q != spelled key %q", zero.Key(), spelled.Key())
	}
	// Every option perturbs the key.
	br := 0.01
	pf := true
	variants := []PredictorSpec{
		{MLPMode: "cold-miss"},
		{MLPMode: "none"},
		{Combined: true},
		{BranchMissRate: &br},
		{NoLLCChain: true},
		{NoBusQueue: true},
		{DispatchModel: "uops"},
		{DispatchModel: "critical"},
		{Prefetcher: &pf},
	}
	seen := map[string]int{zero.Key(): -1}
	for i, s := range variants {
		k := s.Key()
		if j, dup := seen[k]; dup {
			t.Errorf("variants %d and %d share key %q", i, j, k)
		}
		seen[k] = i
	}
}

func TestPredictorSpecValidate(t *testing.T) {
	good := []PredictorSpec{
		{},
		{MLPMode: "stride"},
		{MLPMode: "cold-miss", DispatchModel: "instructions"},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", s, err)
		}
	}
	if err := (PredictorSpec{MLPMode: "warp"}).Validate(); err == nil {
		t.Error("unknown mlp_mode accepted")
		//mipp:allow wraperr this error has no sentinel; its message is the documented contract
	} else if !strings.Contains(err.Error(), "cold-miss") {
		t.Errorf("error %q does not list accepted modes", err)
	}
	if err := (PredictorSpec{DispatchModel: "sideways"}).Validate(); err == nil {
		t.Error("unknown dispatch_model accepted")
	}
}

func TestConfigSpecResolve(t *testing.T) {
	if c, err := (ConfigSpec{Name: "reference"}).Resolve(); err != nil || c.Name != "nehalem-ref" {
		t.Errorf("Resolve(reference) = %v, %v", c, err)
	}
	inline := arch.LowPower()
	if c, err := (ConfigSpec{Config: inline}).Resolve(); err != nil || c != inline {
		t.Errorf("inline Resolve = %v, %v", c, err)
	}
	for _, cs := range []ConfigSpec{
		{},
		{Name: "no-such-machine"},
		{Name: "reference", Config: inline},
	} {
		if _, err := cs.Resolve(); err == nil {
			t.Errorf("Resolve(%+v) accepted", cs)
		}
	}
}

func TestSpaceSpecExpand(t *testing.T) {
	full, err := SpaceSpec{Kind: "design"}.Expand()
	if err != nil || len(full) != 243 {
		t.Errorf("design space = %d configs, %v; want 243", len(full), err)
	}
	sampled, err := SpaceSpec{Kind: "design", Stride: 13}.Expand()
	if err != nil || len(sampled) != 19 {
		t.Errorf("sampled space = %d configs, %v; want 19", len(sampled), err)
	}
	dvfs, err := SpaceSpec{Kind: "dvfs"}.Expand()
	if err != nil || len(dvfs) == 0 {
		t.Errorf("dvfs space = %d configs, %v", len(dvfs), err)
	}
	if _, err := (SpaceSpec{Kind: "hypercube"}).Expand(); err == nil {
		t.Error("unknown space kind accepted")
	}
	if _, err := (SpaceSpec{Kind: "dvfs", Stride: 5}).Expand(); err == nil {
		t.Error("dvfs with stride accepted (stride is design-space only)")
	}
}

func TestExpandConfigsCombines(t *testing.T) {
	out, err := ExpandConfigs([]ConfigSpec{{Name: "lowpower"}}, &SpaceSpec{Kind: "design", Stride: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Errorf("got %d configs, want 1 + 19", len(out))
	}
	if out[0].Name != "low-power" {
		t.Errorf("explicit config not first: %s", out[0].Name)
	}
	if _, err := ExpandConfigs(nil, nil); err == nil {
		t.Error("empty expansion accepted")
	}
	if _, err := ExpandConfigs([]ConfigSpec{{Name: "nope"}}, nil); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestRequestValidation(t *testing.T) {
	valid := []interface{ Validate() error }{
		&PredictRequest{SchemaVersion: SchemaVersion, Workload: "w", Config: ConfigSpec{Name: "reference"}},
		&SweepRequest{SchemaVersion: SchemaVersion, Workload: "w", Space: &SpaceSpec{Kind: "design"}},
		&BatchRequest{SchemaVersion: SchemaVersion, Workloads: []string{"w"}, Configs: []ConfigSpec{{Name: "reference"}}},
		&ParetoRequest{SchemaVersion: SchemaVersion, Workload: "w", Configs: []ConfigSpec{{Name: "reference"}}},
		&RegisterProfileRequest{SchemaVersion: SchemaVersion, Workload: "w", Uops: 1000},
		&RegisterProfileRequest{SchemaVersion: SchemaVersion, Workload: "w", Uops: MaxProfileUops},
		&RegisterProfileRequest{SchemaVersion: SchemaVersion, Profile: json.RawMessage(`{}`)},
	}
	for i, r := range valid {
		if err := r.Validate(); err != nil {
			t.Errorf("valid request %d rejected: %v", i, err)
		}
	}
	invalid := []interface{ Validate() error }{
		&PredictRequest{SchemaVersion: 99, Workload: "w"},
		&PredictRequest{SchemaVersion: SchemaVersion},
		&SweepRequest{SchemaVersion: SchemaVersion, Workload: "w"},
		&SweepRequest{SchemaVersion: SchemaVersion, Configs: []ConfigSpec{{Name: "reference"}}},
		&BatchRequest{SchemaVersion: SchemaVersion, Configs: []ConfigSpec{{Name: "reference"}}},
		&BatchRequest{SchemaVersion: SchemaVersion, Workloads: []string{""}, Configs: []ConfigSpec{{Name: "reference"}}},
		&BatchRequest{SchemaVersion: SchemaVersion, Workloads: []string{"w"}},
		&ParetoRequest{SchemaVersion: SchemaVersion, Workload: "w"},
		&RegisterProfileRequest{SchemaVersion: SchemaVersion},
		&RegisterProfileRequest{SchemaVersion: SchemaVersion, Workload: "w"},
		&RegisterProfileRequest{SchemaVersion: SchemaVersion, Workload: "w", Uops: 100, Profile: json.RawMessage(`{}`)},
		&RegisterProfileRequest{SchemaVersion: SchemaVersion, Workload: "w", Uops: MaxProfileUops + 1},
		&PredictRequest{SchemaVersion: SchemaVersion, Workload: "w", Options: PredictorSpec{MLPMode: "warp"}},
	}
	for i, r := range invalid {
		if err := r.Validate(); err == nil {
			t.Errorf("invalid request %d accepted", i)
		}
	}
}

// The wire format of a result must stay snake_case and complete — clients
// in other languages key on these names.
func TestResultWireFormat(t *testing.T) {
	data, err := json.Marshal(&Result{Workload: "w", Config: "c"})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"workload"`, `"config"`, `"frequency_ghz"`, `"cycles"`, `"cpi"`,
		`"time_seconds"`, `"cpi_stack"`, `"power"`, `"watts"`,
		`"energy_joules"`, `"edp"`, `"ed2p"`, `"deff"`, `"mlp"`,
		`"branch_miss_rate"`, `"base"`, `"branch"`, `"icache"`, `"llc"`,
		`"dram"`, `"static"`, `"core"`, `"fu"`, `"cache"`, `"bpred"`,
	} {
		if !strings.Contains(string(data), field) {
			t.Errorf("result JSON missing %s: %s", field, data)
		}
	}
	if strings.Contains(string(data), "micro_cpi") {
		t.Error("empty micro_cpi not omitted")
	}
}

func TestSpaceSpecParametric(t *testing.T) {
	small := &arch.Space{Widths: []int{2, 4}, ROBs: []int{64, 128}}
	cfgs, err := SpaceSpec{Kind: "parametric", Space: small}.Expand()
	if err != nil || len(cfgs) != 4 {
		t.Fatalf("parametric expand = %d configs, err %v", len(cfgs), err)
	}
	if cfgs[0].Name == "" || cfgs[0].Name == cfgs[3].Name {
		t.Errorf("expanded names not distinct: %q %q", cfgs[0].Name, cfgs[3].Name)
	}

	// Stride samples the enumeration.
	cfgs, err = SpaceSpec{Kind: "parametric", Space: small, Stride: 2}.Expand()
	if err != nil || len(cfgs) != 2 {
		t.Fatalf("strided parametric expand = %d configs, err %v", len(cfgs), err)
	}

	// Oversized spaces must be refused on the materializing paths and
	// directed to /v1/search...
	big := &arch.Space{
		Widths:  []int{1, 2, 3, 4, 5, 6},
		ROBs:    []int{16, 24, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 512},
		L2Bytes: []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20},
		L3Bytes: []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20},
		Clocks: []arch.DVFSPoint{
			{FrequencyGHz: 1.2, VoltageV: 0.85}, {FrequencyGHz: 1.6, VoltageV: 0.95},
			{FrequencyGHz: 2.0, VoltageV: 1.0}, {FrequencyGHz: 2.4, VoltageV: 1.05},
			{FrequencyGHz: 2.66, VoltageV: 1.1}, {FrequencyGHz: 2.8, VoltageV: 1.13},
			{FrequencyGHz: 3.2, VoltageV: 1.2}, {FrequencyGHz: 3.33, VoltageV: 1.25},
		},
		Prefetcher: []bool{false, true},
	}
	if _, err := (SpaceSpec{Kind: "parametric", Space: big}).Expand(); err == nil ||
		//mipp:allow wraperr this error has no sentinel; its message is the documented contract
		!strings.Contains(err.Error(), "/v1/search") {
		t.Errorf("oversized parametric expand err = %v, want /v1/search hint", err)
	}
	// ...but walk lazily without complaint.
	sp, err := SpaceSpec{Kind: "parametric", Space: big}.Lazy()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Size() != 6*16*7*7*8*2 {
		t.Errorf("lazy size = %d", sp.Size())
	}

	// Lazy forms of the named kinds.
	if sp, err := (SpaceSpec{Kind: "design"}).Lazy(); err != nil || sp.Size() != 243 {
		t.Errorf("lazy design = %v size %d", err, sp.Size())
	}
	if sp, err := (SpaceSpec{Kind: "dvfs"}).Lazy(); err != nil || sp.Size() != 5 {
		t.Errorf("lazy dvfs = %v", err)
	}
	// The materialized and lazy dvfs paths must agree on names, so sweep
	// and search results join across endpoints.
	dvfsCfgs, err := SpaceSpec{Kind: "dvfs"}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	dvfsSpace, _ := SpaceSpec{Kind: "dvfs"}.Lazy()
	for i, c := range dvfsCfgs {
		if lazy := dvfsSpace.At(i); lazy.Name != c.Name {
			t.Errorf("dvfs name mismatch at %d: expand %q vs lazy %q", i, c.Name, lazy.Name)
		}
	}
	if _, err := (SpaceSpec{Kind: "parametric"}).Lazy(); err == nil {
		t.Error("axis-less parametric Lazy did not error")
	}
	if _, err := (SpaceSpec{Kind: "design", Stride: 3}).Lazy(); err == nil {
		t.Error("strided lazy design space did not error")
	}
	if _, err := (SpaceSpec{Kind: "design", Space: small}).Lazy(); err == nil {
		t.Error("design kind with parametric axes did not error")
	}
	if _, err := (SpaceSpec{Kind: "dvfs", Stride: 3}).Lazy(); err == nil {
		t.Error("strided lazy dvfs space did not error")
	}
}

func TestStrategySpecValidate(t *testing.T) {
	good := []StrategySpec{
		{Kind: "exhaustive"},
		{Kind: "random", Seed: 9, Samples: 100},
		{Kind: "hill", Restarts: 4},
		{Kind: "genetic", Population: 32, Generations: 10, MutationRate: 0.2, Elite: 2},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	bad := []StrategySpec{
		{},
		{Kind: "annealing"},
		{Kind: "random", Samples: -1},
		{Kind: "genetic", MutationRate: 1.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v validated, want error", s)
		}
	}
}

func TestSearchRequestValidate(t *testing.T) {
	ok := SearchRequest{
		SchemaVersion: SchemaVersion,
		Workload:      "mcf",
		Space:         SpaceSpec{Kind: "design"},
		Strategy:      StrategySpec{Kind: "random"},
		Objective:     "ed2p",
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	neg := -1.0
	bad := []SearchRequest{
		{SchemaVersion: 9, Workload: "m", Space: SpaceSpec{Kind: "design"}, Strategy: StrategySpec{Kind: "random"}},
		{SchemaVersion: SchemaVersion, Space: SpaceSpec{Kind: "design"}, Strategy: StrategySpec{Kind: "random"}},
		{SchemaVersion: SchemaVersion, Workload: "m", Strategy: StrategySpec{Kind: "random"}},
		{SchemaVersion: SchemaVersion, Workload: "m", Space: SpaceSpec{Kind: "design"}, Strategy: StrategySpec{Kind: "nope"}},
		{SchemaVersion: SchemaVersion, Workload: "m", Space: SpaceSpec{Kind: "design"}, Strategy: StrategySpec{Kind: "random"}, Objective: "speed"},
		{SchemaVersion: SchemaVersion, Workload: "m", Space: SpaceSpec{Kind: "design"}, Strategy: StrategySpec{Kind: "random"}, Budget: -2},
		{SchemaVersion: SchemaVersion, Workload: "m", Space: SpaceSpec{Kind: "design"}, Strategy: StrategySpec{Kind: "random"}, CapWatts: &neg},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d validated", i)
		}
	}
}
