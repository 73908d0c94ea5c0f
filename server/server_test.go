package server

// Handler table tests: golden JSON for the error envelopes, malformed-body
// and version-mismatch rejection, and engine-equivalence for the success
// paths (the handler must return exactly the bytes the engine's response
// marshals to).

import (
	"context"
	"encoding/json"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mipp"
	"mipp/api"
	"mipp/arch"
	"mipp/store"
)

const testUops = 30_000

var testEngineOnce struct {
	sync.Once
	engine *mipp.Engine
	err    error
}

// testEngine shares one profiled engine across handler tests.
func testEngine(t testing.TB) *mipp.Engine {
	t.Helper()
	testEngineOnce.Do(func() {
		e := mipp.NewEngine()
		for _, w := range []string{"mcf", "gcc"} {
			p, err := mipp.NewProfiler().Profile(w, testUops)
			if err != nil {
				testEngineOnce.err = err
				return
			}
			if err := e.Register(w, p); err != nil {
				testEngineOnce.err = err
				return
			}
		}
		testEngineOnce.engine = e
	})
	if testEngineOnce.err != nil {
		t.Fatal(testEngineOnce.err)
	}
	return testEngineOnce.engine
}

func serve(t *testing.T, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	srv := New(testEngine(t))
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestHandlerErrorTable(t *testing.T) {
	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		// wantGolden, when set, must equal the whole response body
		// (trailing newline aside).
		wantGolden string
		// wantContains, when set, must appear in the error message.
		wantContains string
	}{
		{
			name:   "version mismatch",
			method: "POST", path: "/v1/predict",
			body:       `{"schema_version":99,"workload":"mcf","config":{"name":"reference"}}`,
			wantStatus: http.StatusBadRequest,
			wantGolden: `{"schema_version":1,"error":"mipp: bad request: api: unsupported schema version 99 (this build speaks 1)"}`,
		},
		{
			name:   "malformed body",
			method: "POST", path: "/v1/predict",
			body:         `{"schema_version":1,`,
			wantStatus:   http.StatusBadRequest,
			wantContains: "decode request",
		},
		{
			name:   "trailing garbage",
			method: "POST", path: "/v1/predict",
			body:         `{"schema_version":1,"workload":"mcf","config":{"name":"reference"}} extra`,
			wantStatus:   http.StatusBadRequest,
			wantContains: "trailing data",
		},
		{
			name:   "unknown field",
			method: "POST", path: "/v1/predict",
			body:         `{"schema_version":1,"workload":"mcf","config":{"name":"reference"},"turbo":true}`,
			wantStatus:   http.StatusBadRequest,
			wantContains: "unknown field",
		},
		{
			name:   "unknown workload",
			method: "POST", path: "/v1/predict",
			body:       `{"schema_version":1,"workload":"nope","config":{"name":"reference"}}`,
			wantStatus: http.StatusNotFound,
			wantGolden: `{"schema_version":1,"error":"mipp: unknown workload: \"nope\" (registered: [gcc mcf])"}`,
		},
		{
			name:   "unknown stock config",
			method: "POST", path: "/v1/predict",
			body:         `{"schema_version":1,"workload":"mcf","config":{"name":"cray-1"}}`,
			wantStatus:   http.StatusBadRequest,
			wantContains: "unknown stock config",
		},
		{
			name:   "sweep without configs",
			method: "POST", path: "/v1/sweep",
			body:         `{"schema_version":1,"workload":"mcf"}`,
			wantStatus:   http.StatusBadRequest,
			wantContains: "no configurations",
		},
		{
			name:   "batch without workloads",
			method: "POST", path: "/v1/evaluate",
			body:         `{"schema_version":1,"configs":[{"name":"reference"}]}`,
			wantStatus:   http.StatusBadRequest,
			wantContains: "no workloads",
		},
		{
			name:   "bad option name",
			method: "POST", path: "/v1/sweep",
			body:         `{"schema_version":1,"workload":"mcf","space":{"kind":"design"},"options":{"mlp_mode":"warp"}}`,
			wantStatus:   http.StatusBadRequest,
			wantContains: "unknown mlp_mode",
		},
		{
			// Validate rejects the count before anything is generated.
			name:   "profile trace over the cap",
			method: "POST", path: "/v1/profiles",
			body:       `{"schema_version":1,"workload":"mcf","uops":` + strconv.Itoa(api.MaxProfileUops+1) + `}`,
			wantStatus: http.StatusBadRequest,
			wantGolden: `{"schema_version":1,"error":"mipp: bad request: api: register request for \"mcf\" asks for 4194305 uops (max 4194304 profiled server-side); profile longer traces offline with cmd/aip and register the profile inline"}`,
		},
		{
			name:   "method not allowed",
			method: "GET", path: "/v1/predict",
			wantStatus: http.StatusMethodNotAllowed,
		},
		{
			name:   "unknown route",
			method: "GET", path: "/v2/predict",
			wantStatus: http.StatusNotFound,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rec := serve(t, tc.method, tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			body := strings.TrimSpace(rec.Body.String())
			if tc.wantGolden != "" && body != tc.wantGolden {
				t.Errorf("body = %s\nwant  %s", body, tc.wantGolden)
			}
			if tc.wantContains != "" && !strings.Contains(body, tc.wantContains) {
				t.Errorf("body %s does not contain %q", body, tc.wantContains)
			}
		})
	}
}

// Oversized bodies get 413, not 400 — clients must be able to tell "shrink
// the upload" from "fix the JSON".
func TestBodyTooLarge(t *testing.T) {
	srv := New(testEngine(t), WithMaxBodyBytes(64))
	body := `{"schema_version":1,"workload":"mcf","config":{"name":"reference"},"options":{}}`
	req := httptest.NewRequest("POST", "/v1/predict", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", rec.Code, rec.Body.String())
	}
}

func TestHealthzGolden(t *testing.T) {
	rec := serve(t, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.SchemaVersion != api.SchemaVersion || h.Status != "ok" || h.Workloads != 2 {
		t.Errorf("healthz = %+v", h)
	}
}

// The success path must return exactly the engine's marshaled response.
func TestHandlersMatchEngine(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()

	predictReq := &api.PredictRequest{SchemaVersion: api.SchemaVersion, Workload: "mcf",
		Config: api.ConfigSpec{Name: "reference"}}
	sweepReq := &api.SweepRequest{SchemaVersion: api.SchemaVersion, Workload: "gcc",
		Space: &api.SpaceSpec{Kind: "dvfs"}}
	batchReq := &api.BatchRequest{SchemaVersion: api.SchemaVersion, Workloads: []string{"mcf", "gcc"},
		Configs: []api.ConfigSpec{{Name: "reference"}, {Name: "lowpower"}}}

	cases := []struct {
		path string
		req  any
		call func() (any, error)
	}{
		{"/v1/predict", predictReq, func() (any, error) { return e.Predict(ctx, predictReq) }},
		{"/v1/sweep", sweepReq, func() (any, error) { return e.Sweep(ctx, sweepReq) }},
		{"/v1/evaluate", batchReq, func() (any, error) { return e.Evaluate(ctx, batchReq) }},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			want, err := tc.call()
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			rec := serve(t, "POST", tc.path, string(body))
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
			}
			if got := strings.TrimSpace(rec.Body.String()); got != string(wantJSON) {
				t.Errorf("handler response differs from engine response\nhandler: %.200s\nengine:  %.200s", got, wantJSON)
			}
		})
	}
}

// TestEvaluateNonPositiveClock sends inline configs whose clock is zero,
// negative or so small that the derived metrics overflow. Each must come
// back as an item error in a body that decodes: encoding/json cannot
// encode the infinite time or energy such a clock predicts.
func TestEvaluateNonPositiveClock(t *testing.T) {
	for _, ghz := range []float64{0, -1, 1e-300} {
		t.Run(strconv.FormatFloat(ghz, 'g', -1, 64), func(t *testing.T) {
			cfg := *arch.Reference()
			cfg.FrequencyGHz = ghz
			body, err := json.Marshal(&api.BatchRequest{SchemaVersion: api.SchemaVersion,
				Workloads: []string{"mcf"}, Configs: []api.ConfigSpec{{Config: &cfg}}})
			if err != nil {
				t.Fatal(err)
			}
			rec := serve(t, "POST", "/v1/evaluate", string(body))
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d: %s", rec.Code, rec.Body)
			}
			var resp api.BatchResponse
			if err := api.DecodeBatchResponse(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %q does not decode: %v", rec.Body, err)
			}
			if len(resp.Items) != 1 || resp.Items[0].Error == "" || resp.Items[0].Result != nil {
				t.Errorf("want one item error, got %s", rec.Body)
			}
		})
	}
}

// TestWriteJSONEncodeFailure pins writeJSON's write order: a value that
// fails to marshal answers 500 with the error envelope, not the intended
// status with an empty body, and a value that marshals keeps its status and
// is written as is.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct{ X float64 }{math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %q)", rec.Code, rec.Body)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.SchemaVersion != api.SchemaVersion || e.Error == "" {
		t.Fatalf("body %q is not an error envelope (%v)", rec.Body, err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, struct{ X float64 }{1.5})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\"X\":1.5}\n" {
		t.Fatalf("status %d, body %q; want 202 and {\"X\":1.5}", rec.Code, rec.Body)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	rec := serve(t, "GET", "/v1/workloads", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp api.WorkloadsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Workloads) != 2 || resp.Workloads[0].Name != "gcc" || resp.Workloads[1].Name != "mcf" {
		t.Errorf("workloads = %+v, want sorted [gcc mcf]", resp.Workloads)
	}
	for _, w := range resp.Workloads {
		if w.Uops < testUops || w.MicroTraces == 0 {
			t.Errorf("workload info incomplete: %+v", w)
		}
	}
}

// TestSearchRoutes drives the async search surface over HTTP: submit, poll
// to completion, cancel taxonomy, healthz job counters and the job-ID
// request log lines.
func TestSearchRoutes(t *testing.T) {
	var logBuf strings.Builder
	logMu := &sync.Mutex{}
	engine := testEngine(t)
	srv := New(engine, WithLogger(log.New(lockedWriter{&logBuf, logMu}, "", 0)))

	do := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	rec := do("POST", "/v1/search",
		`{"schema_version":1,"workload":"mcf","space":{"kind":"design"},"strategy":{"kind":"random","seed":4,"samples":25}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("submit status = %d (%s)", rec.Code, rec.Body.String())
	}
	var sub api.SearchJobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Job.ID == "" || sub.Job.SpaceSize != 243 {
		t.Fatalf("submit job = %+v", sub.Job)
	}

	var fin api.SearchJobResponse
	for i := 0; i < 1000; i++ {
		rec = do("GET", "/v1/search/"+sub.Job.ID, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("poll status = %d (%s)", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &fin); err != nil {
			t.Fatal(err)
		}
		if fin.Job.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if fin.Job.State != api.JobDone || fin.Job.Report == nil || fin.Job.Report.Evaluations != 25 {
		t.Fatalf("final job = %+v", fin.Job)
	}

	if rec = do("GET", "/v1/search/job-unknown", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job poll status = %d", rec.Code)
	}
	if rec = do("DELETE", "/v1/search/"+sub.Job.ID, ""); rec.Code != http.StatusOK {
		t.Errorf("cancel of finished job status = %d (%s)", rec.Code, rec.Body.String())
	}

	rec = do("GET", "/healthz", "")
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.SearchJobsInFlight != 0 || h.SearchJobsCompleted == 0 {
		t.Errorf("healthz search counters = in-flight %d completed %d", h.SearchJobsInFlight, h.SearchJobsCompleted)
	}

	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, "search job "+sub.Job.ID+": submitted") {
		t.Errorf("request log lacks submit line with job ID:\n%s", logs)
	}
	if !strings.Contains(logs, "/v1/search/"+sub.Job.ID) {
		t.Errorf("request log lacks poll path with job ID:\n%s", logs)
	}
	if !strings.Contains(logs, "search job "+sub.Job.ID+": cancel requested") {
		t.Errorf("request log lacks cancel line with job ID:\n%s", logs)
	}
}

// lockedWriter serializes handler-goroutine log writes during the test.
type lockedWriter struct {
	w  *strings.Builder
	mu *sync.Mutex
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestProfileRoutes drives GET/DELETE /v1/profiles/{name} against both a
// plain in-memory engine and a store-backed one, including the /healthz
// store section and the 404 taxonomy.
func TestProfileRoutes(t *testing.T) {
	// Storeless engine: metadata is computed from the resident profile.
	rec := serve(t, "GET", "/v1/profiles/mcf", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET profile status = %d (%s)", rec.Code, rec.Body.String())
	}
	var info api.ProfileInfoResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	p := info.Profile
	if p.Name != "mcf" || !strings.HasPrefix(p.Digest, "sha256:") || p.SizeBytes <= 0 || !p.Resident {
		t.Fatalf("profile info = %+v", p)
	}
	if rec := serve(t, "GET", "/v1/profiles/nope", ""); rec.Code != http.StatusNotFound {
		t.Errorf("GET unknown profile status = %d", rec.Code)
	}

	// Store-backed engine: same surface plus durable delete and store
	// counters on /healthz.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	engine := mipp.NewEngine(mipp.WithEngineStore(st))
	prof, _ := testEngine(t).Profile("mcf")
	if err := engine.Register("mcf", prof); err != nil {
		t.Fatal(err)
	}
	srv := New(engine)
	do := func(method, path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	rec = do("GET", "/v1/profiles/mcf")
	var stored api.ProfileInfoResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stored); err != nil {
		t.Fatal(err)
	}
	// Content addressing: the store-backed daemon reports the same digest
	// as the in-memory one for the same profile.
	if stored.Profile.Digest != p.Digest || stored.Profile.SizeBytes != p.SizeBytes {
		t.Errorf("store digest %s/%d != in-memory digest %s/%d",
			stored.Profile.Digest, stored.Profile.SizeBytes, p.Digest, p.SizeBytes)
	}

	rec = do("GET", "/healthz")
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Store == nil || h.Store.Objects != 1 || h.Workloads != 1 {
		t.Fatalf("healthz store section = %+v (workloads %d)", h.Store, h.Workloads)
	}

	rec = do("DELETE", "/v1/profiles/mcf")
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE status = %d (%s)", rec.Code, rec.Body.String())
	}
	var del api.DeleteProfileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &del); err != nil {
		t.Fatal(err)
	}
	if !del.Deleted || del.Name != "mcf" {
		t.Errorf("delete response = %+v", del)
	}
	if rec := do("DELETE", "/v1/profiles/mcf"); rec.Code != http.StatusNotFound {
		t.Errorf("second DELETE status = %d", rec.Code)
	}
	if rec := do("GET", "/v1/profiles/mcf"); rec.Code != http.StatusNotFound {
		t.Errorf("GET after DELETE status = %d", rec.Code)
	}
	rec = do("GET", "/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Store == nil || h.Store.Objects != 0 {
		t.Errorf("healthz store section after delete = %+v", h.Store)
	}

	// The storeless /healthz must omit the store section entirely.
	rec = serve(t, "GET", "/healthz", "")
	if strings.Contains(rec.Body.String(), `"store"`) {
		t.Errorf("storeless healthz has a store section: %s", rec.Body.String())
	}
}
