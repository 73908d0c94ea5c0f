package client_test

// Client ↔ server round-trip tests: the acceptance criterion that a sweep
// issued through mipp/client against a running server returns byte-identical
// JSON to the same sweep run through the in-process mipp.Engine, exercised
// through the shared mipp.Evaluator interface — plus a concurrent round-trip
// for the race detector and the error taxonomy over the wire.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mipp"
	"mipp/api"
	"mipp/arch"
	"mipp/client"
	"mipp/server"
)

const testUops = 30_000

// harness is one engine served over loopback HTTP with a client pointed at
// it: the two Evaluators the equivalence tests compare.
type harness struct {
	engine *mipp.Engine
	remote *client.Client
}

var harnessOnce struct {
	sync.Once
	h   *harness
	srv *httptest.Server
	err error
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	harnessOnce.Do(func() {
		engine := mipp.NewEngine()
		p, err := mipp.NewProfiler().Profile("mcf", testUops)
		if err != nil {
			harnessOnce.err = err
			return
		}
		if err := engine.Register("mcf", p); err != nil {
			harnessOnce.err = err
			return
		}
		harnessOnce.srv = httptest.NewServer(server.New(engine))
		harnessOnce.h = &harness{
			engine: engine,
			remote: client.New(harnessOnce.srv.URL),
		}
	})
	if harnessOnce.err != nil {
		t.Fatal(harnessOnce.err)
	}
	return harnessOnce.h
}

// evaluators returns both sides of the interface under their shared type.
func (h *harness) evaluators() map[string]mipp.Evaluator {
	return map[string]mipp.Evaluator{"local": h.engine, "remote": h.remote}
}

// TestSweepByteIdentical is the acceptance criterion: same sweep, two
// evaluators, identical bytes.
func TestSweepByteIdentical(t *testing.T) {
	h := newHarness(t)
	req := &api.SweepRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "mcf",
		Space:         &api.SpaceSpec{Kind: "design", Stride: 13},
		Configs:       []api.ConfigSpec{{Name: "reference"}, {Name: "lowpower"}},
	}
	got := map[string][]byte{}
	for name, ev := range h.evaluators() {
		resp, err := ev.Sweep(context.Background(), req)
		if err != nil {
			t.Fatalf("%s sweep: %v", name, err)
		}
		if len(resp.Results) != 21 || len(resp.Errors) != 0 {
			t.Fatalf("%s sweep: %d results, %d errors", name, len(resp.Results), len(resp.Errors))
		}
		data, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = data
	}
	if string(got["local"]) != string(got["remote"]) {
		t.Errorf("local and remote sweep JSON differ:\nlocal:  %.300s\nremote: %.300s", got["local"], got["remote"])
	}
}

// TestEvaluatorParity runs every query type through both evaluators and
// compares the marshaled responses.
func TestEvaluatorParity(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	capW := 18.0
	queries := []struct {
		name string
		call func(ev mipp.Evaluator) (any, error)
	}{
		{"workloads", func(ev mipp.Evaluator) (any, error) { return ev.Workloads(ctx) }},
		{"predict", func(ev mipp.Evaluator) (any, error) {
			return ev.Predict(ctx, &api.PredictRequest{SchemaVersion: api.SchemaVersion,
				Workload: "mcf", Config: api.ConfigSpec{Name: "reference"}, MicroCPI: true})
		}},
		{"evaluate", func(ev mipp.Evaluator) (any, error) {
			return ev.Evaluate(ctx, &api.BatchRequest{SchemaVersion: api.SchemaVersion,
				Workloads: []string{"mcf", "mcf"}, Space: &api.SpaceSpec{Kind: "dvfs"}})
		}},
		{"pareto", func(ev mipp.Evaluator) (any, error) {
			return ev.Pareto(ctx, &api.ParetoRequest{SchemaVersion: api.SchemaVersion,
				Workload: "mcf", Space: &api.SpaceSpec{Kind: "design", Stride: 27}, CapWatts: &capW})
		}},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			var blobs [][]byte
			for name, ev := range map[string]mipp.Evaluator{"local": h.engine, "remote": h.remote} {
				resp, err := q.call(ev)
				if err != nil {
					t.Fatalf("%s %s: %v", name, q.name, err)
				}
				data, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				blobs = append(blobs, data)
			}
			if string(blobs[0]) != string(blobs[1]) {
				t.Errorf("%s responses differ:\n%.300s\n%.300s", q.name, blobs[0], blobs[1])
			}
		})
	}
}

// TestConcurrentRoundTrip hammers both evaluators from many goroutines —
// meaningful under -race: it exercises the predictor cache, the worker
// pool and the HTTP path concurrently.
func TestConcurrentRoundTrip(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		for name, ev := range h.evaluators() {
			wg.Add(1)
			go func(i int, name string, ev mipp.Evaluator) {
				defer wg.Done()
				spec := api.PredictorSpec{}
				if i%2 == 1 {
					spec.MLPMode = "cold-miss"
				}
				resp, err := ev.Sweep(ctx, &api.SweepRequest{
					SchemaVersion: api.SchemaVersion,
					Workload:      "mcf",
					Space:         &api.SpaceSpec{Kind: "design", Stride: 61},
					Options:       spec,
					Workers:       2,
				})
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Results) == 0 || resp.Results[0] == nil {
					errs <- errors.New(name + ": empty sweep result")
				}
			}(i, name, ev)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRemoteErrors checks the wire error taxonomy maps back onto the
// Evaluator sentinels, so errors.Is-based callers are evaluator-agnostic.
func TestRemoteErrors(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()

	_, err := h.remote.Predict(ctx, &api.PredictRequest{SchemaVersion: api.SchemaVersion,
		Workload: "nope", Config: api.ConfigSpec{Name: "reference"}})
	if !errors.Is(err, mipp.ErrUnknownWorkload) {
		t.Errorf("remote unknown-workload error = %v, want ErrUnknownWorkload", err)
	}
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Status != 404 {
		t.Errorf("error %v is not a 404 RemoteError", err)
	}

	_, err = h.remote.Predict(ctx, &api.PredictRequest{SchemaVersion: 99,
		Workload: "mcf", Config: api.ConfigSpec{Name: "reference"}})
	if !errors.Is(err, mipp.ErrBadRequest) {
		t.Errorf("remote version-mismatch error = %v, want ErrBadRequest", err)
	}

	_, err = client.New("http://127.0.0.1:1").Workloads(ctx)
	if err == nil {
		t.Error("unreachable server did not error")
	}
}

// TestEvaluateTrailingData pins the one way the evaluate decode differs
// from the other calls' json.Decoder, which stops after the value: any
// byte but whitespace after the answer is an error.
func TestEvaluateTrailingData(t *testing.T) {
	const answer = `{"schema_version":1,"items":[{"workload":"mcf","config":"reference","error":"x"}]}`
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"garbage", answer + "x", false},
		{"second value", answer + "\n{}", false},
		{"whitespace", answer + " \n\t\r\n", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				_, _ = io.WriteString(w, c.body)
			}))
			defer srv.Close()
			resp, err := client.New(srv.URL).Evaluate(context.Background(), &api.BatchRequest{
				SchemaVersion: api.SchemaVersion, Workloads: []string{"mcf"},
				Configs: []api.ConfigSpec{{Name: "reference"}}})
			switch {
			case c.ok && err != nil:
				t.Fatalf("evaluate: %v", err)
			case c.ok && (len(resp.Items) != 1 || resp.Items[0].Error != "x"):
				t.Errorf("decoded %+v", resp)
			case !c.ok && err == nil:
				t.Errorf("evaluate accepted %q", c.body)
			}
		})
	}
}

// TestSearchByteIdentical is the async half of the acceptance criterion:
// the same seeded search request submitted through the in-process Engine
// and through the HTTP client must produce byte-identical reports.
func TestSearchByteIdentical(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	capW := 20.0
	req := &api.SearchRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "mcf",
		Space: api.SpaceSpec{Kind: "parametric", Space: &arch.Space{
			Widths:  []int{2, 4, 6},
			ROBs:    []int{64, 128, 256, 512},
			L2Bytes: []int64{128 << 10, 256 << 10, 512 << 10},
			Clocks: []arch.DVFSPoint{
				{FrequencyGHz: 2.0, VoltageV: 1.0},
				{FrequencyGHz: 2.66, VoltageV: 1.1},
				{FrequencyGHz: 3.33, VoltageV: 1.25},
			},
			Prefetcher: []bool{false, true},
		}},
		Strategy:  api.StrategySpec{Kind: "genetic", Seed: 99, Population: 16, Generations: 5},
		Objective: "edp",
		CapWatts:  &capW,
		Budget:    200,
	}
	got := map[string][]byte{}
	for name, s := range map[string]mipp.Searcher{"local": h.engine, "remote": h.remote} {
		sub, err := s.SubmitSearch(ctx, req)
		if err != nil {
			t.Fatalf("%s submit: %v", name, err)
		}
		final, err := mipp.WaitSearch(ctx, s, sub.Job.ID, time.Millisecond)
		if err != nil {
			t.Fatalf("%s wait: %v", name, err)
		}
		if final.Job.State != api.JobDone || final.Job.Report == nil {
			t.Fatalf("%s job = %+v", name, final.Job)
		}
		data, err := json.Marshal(final.Job.Report)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = data
	}
	if string(got["local"]) != string(got["remote"]) {
		t.Errorf("local and remote search reports differ:\nlocal:  %.400s\nremote: %.400s", got["local"], got["remote"])
	}
}

// TestSearchRemoteLifecycle exercises poll and cancel over the wire,
// including the 404 taxonomy for unknown jobs.
func TestSearchRemoteLifecycle(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	resp, err := h.remote.Search(ctx, &api.SearchRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "mcf",
		Space:         api.SpaceSpec{Kind: "design"},
		Strategy:      api.StrategySpec{Kind: "random", Seed: 1, Samples: 30},
	}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != api.JobDone || resp.Job.Report == nil || resp.Job.Report.Evaluations != 30 {
		t.Fatalf("remote search job = %+v", resp.Job)
	}

	if _, err := h.remote.SearchJob(ctx, "job-does-not-exist"); !errors.Is(err, mipp.ErrUnknownJob) {
		t.Errorf("remote unknown-job error = %v, want ErrUnknownJob", err)
	}
	if _, err := h.remote.CancelSearch(ctx, "job-does-not-exist"); !errors.Is(err, mipp.ErrUnknownJob) {
		t.Errorf("remote unknown-job cancel = %v, want ErrUnknownJob", err)
	}
}

// TestUploadProfile registers a locally-collected profile remotely, then
// predicts through both evaluators and compares.
func TestUploadProfile(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	p, err := mipp.NewProfiler().Profile("libquantum", testUops)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.remote.UploadProfile(ctx, "lq", p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "lq" || resp.Workload != "libquantum" {
		t.Errorf("upload response = %+v", resp)
	}
	req := &api.PredictRequest{SchemaVersion: api.SchemaVersion, Workload: "lq",
		Config: api.ConfigSpec{Name: "reference"}}
	local, err := h.engine.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := h.remote.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(local)
	b, _ := json.Marshal(remote)
	if string(a) != string(b) {
		t.Errorf("uploaded-profile predictions differ:\n%s\n%s", a, b)
	}
}

// TestProfileAdmin drives the profile-management surface over the wire:
// GET metadata parity with the in-process engine, DELETE with durable
// effect, and the 404 → ErrUnknownWorkload mapping.
func TestProfileAdmin(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()

	// Metadata parity: both evaluators report the identical canonical
	// digest for the shared profile.
	local, err := h.engine.ProfileInfo(ctx, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := h.remote.ProfileInfo(ctx, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(local)
	b, _ := json.Marshal(remote)
	if string(a) != string(b) {
		t.Errorf("profile info differs:\nlocal:  %s\nremote: %s", a, b)
	}
	if local.Profile.Digest == "" || local.Profile.SizeBytes <= 0 {
		t.Errorf("profile info incomplete: %+v", local.Profile)
	}

	if _, err := h.remote.ProfileInfo(ctx, "nope"); !errors.Is(err, mipp.ErrUnknownWorkload) {
		t.Errorf("remote ProfileInfo(unknown) = %v, want ErrUnknownWorkload", err)
	}

	// Upload a scratch profile, delete it over the wire, and confirm the
	// engine no longer serves it anywhere.
	p, err := mipp.NewProfiler().Profile("bzip2", testUops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.remote.UploadProfile(ctx, "scratch-del", p); err != nil {
		t.Fatal(err)
	}
	del, err := h.remote.DeleteProfile(ctx, "scratch-del")
	if err != nil {
		t.Fatal(err)
	}
	if !del.Deleted || del.Name != "scratch-del" {
		t.Errorf("delete response = %+v", del)
	}
	if _, err := h.remote.DeleteProfile(ctx, "scratch-del"); !errors.Is(err, mipp.ErrUnknownWorkload) {
		t.Errorf("second remote delete = %v, want ErrUnknownWorkload", err)
	}
	if _, err := h.engine.Predict(ctx, &api.PredictRequest{SchemaVersion: api.SchemaVersion,
		Workload: "scratch-del", Config: api.ConfigSpec{Name: "reference"}}); !errors.Is(err, mipp.ErrUnknownWorkload) {
		t.Errorf("engine still serves deleted profile: %v", err)
	}
}

// TestSearchEventStreamFraming feeds SearchEventStream.Next an SSE body
// with the framing a reader must tolerate: comments, CRLF line ends, a
// message split over two data lines inside a JSON string, a data line and
// a comment line each longer than the read buffer, and stray separators. Each message decodes
// to what json.Unmarshal makes of its data.
func TestSearchEventStreamFraming(t *testing.T) {
	front := make([]api.SearchEval, 120)
	for i := range front {
		front[i] = api.SearchEval{Index: i, Config: "w4-rob128-l2_256k", Watts: float64(i) + 0.5, Feasible: true}
	}
	long, err := json.Marshal(api.SearchEvent{SchemaVersion: 1, JobID: "j", Seq: 2, Type: api.SearchEventFront, Front: front})
	if err != nil {
		t.Fatal(err)
	}
	if len(long) <= 4096 {
		t.Fatalf("the long event is %d bytes, not longer than the read buffer", len(long))
	}
	datas := []string{
		`{"schema_version":1,"job_id":"j","seq":1,"type":"progress","generation":1}`,
		string(long),
		`{"schema_version":1,"job_id":"j","seq":3,"type":"progress","evaluations":7}`,
		`{"schema_version":1,"job_id":"j","seq":4,"type":"done","report":{"strategy":"hill","seed":3,"front":[],"trace":null}}`,
	}
	body := ": keep-alive\n\n" +
		"id: 1\nevent: progress\ndata: " + datas[0] + "\n\n" +
		": " + string(long) + "\n" +
		"id: 2\r\nevent: front\r\ndata: " + datas[1] + "\r\n\r\n" +
		"\n\n" +
		"id: 3\r\ndata: " + datas[2][:24] + "\r\ndata:" + datas[2][24:] + "\r\n\r\n" +
		"id: 4\nevent: done\ndata: " + datas[3] + "\n\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = io.WriteString(w, body)
	}))
	defer srv.Close()
	stream, err := client.New(srv.URL).SearchEvents(context.Background(), "j", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for i, data := range datas {
		got, err := stream.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		var want api.SearchEvent
		if err := json.Unmarshal([]byte(data), &want); err != nil {
			t.Fatal(err)
		}
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(&want)
		if string(g) != string(w) {
			t.Fatalf("event %d:\n got  %.300s\n want %.300s", i, g, w)
		}
		if stream.LastSeq != want.Seq {
			t.Errorf("LastSeq = %d after event %d, want %d", stream.LastSeq, i, want.Seq)
		}
	}
	if _, err := stream.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("after the last event: %v, want io.EOF", err)
	}
}

// TestSearchJobTrailingData checks that search job answers, decoded in one
// pass like evaluate answers, reject anything but whitespace after the
// answer.
func TestSearchJobTrailingData(t *testing.T) {
	const answer = `{"schema_version":1,"job":{"id":"job-x-1","state":"done","workload":"mcf","strategy":"hill","space_size":4,"evaluations":2,"generations":1}}`
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"garbage", answer + "x", false},
		{"second value", answer + "\n{}", false},
		{"whitespace", answer + " \n\t\r\n", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				_, _ = io.WriteString(w, c.body)
			}))
			defer srv.Close()
			cl := client.New(srv.URL)
			for name, call := range map[string]func() (*api.SearchJobResponse, error){
				"submit": func() (*api.SearchJobResponse, error) {
					return cl.SubmitSearch(context.Background(), &api.SearchRequest{SchemaVersion: api.SchemaVersion})
				},
				"poll":   func() (*api.SearchJobResponse, error) { return cl.SearchJob(context.Background(), "job-x-1") },
				"cancel": func() (*api.SearchJobResponse, error) { return cl.CancelSearch(context.Background(), "job-x-1") },
			} {
				resp, err := call()
				switch {
				case c.ok && err != nil:
					t.Fatalf("%s: %v", name, err)
				case c.ok && (resp.Job.ID != "job-x-1" || resp.Job.Evaluations != 2):
					t.Errorf("%s decoded %+v", name, resp.Job)
				case !c.ok && err == nil:
					t.Errorf("%s accepted %q", name, c.body)
				}
			}
		})
	}
}
