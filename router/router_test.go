package router_test

// Router integration tests against real replica stacks: three mippd
// handler chains over one shared profile store behind a router must be
// byte-indistinguishable from a single local daemon — for predict, sweep,
// pareto, cross-workload evaluate, catalog listing, and a seeded search's
// report — must survive losing a replica by rehashing, must relay SSE and
// NDJSON streams live, and must carry one X-Request-Id across both hops.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mipp"
	"mipp/api"
	"mipp/client"
	"mipp/router"
	"mipp/server"
	"mipp/store"
)

const testUops = 20_000

var profileCache sync.Map

func testProfile(t *testing.T, workload string) *mipp.Profile {
	t.Helper()
	if p, ok := profileCache.Load(workload); ok {
		return p.(*mipp.Profile)
	}
	p, err := mipp.NewProfiler().Profile(workload, testUops)
	if err != nil {
		t.Fatalf("profile %s: %v", workload, err)
	}
	profileCache.Store(workload, p)
	return p
}

// lockedBuf is a race-safe log sink.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// cluster is three replica daemons over one shared store, one reference
// daemon over the same store, and a router fronting the replicas.
type cluster struct {
	replicas  []*httptest.Server
	replogs   []*lockedBuf
	reference *httptest.Server
	rt        *router.Router
	routerTS  *httptest.Server
	routerLog *lockedBuf
}

func newCluster(t *testing.T) *cluster {
	t.Helper()
	dir := t.TempDir()
	seed, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"mcf", "gcc"} {
		if _, err := seed.Put(w, testProfile(t, w)); err != nil {
			t.Fatal(err)
		}
	}

	c := &cluster{}
	engine := func(l *log.Logger) *mipp.Engine {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts := []mipp.EngineOption{mipp.WithEngineStore(st)}
		if l != nil {
			// An engine logger turns on the engine-level trace spans
			// (store.load, engine.compile), which the trace-propagation
			// test asserts nest under the replica's HTTP span.
			opts = append(opts, mipp.WithEngineLogger(l))
		}
		return mipp.NewEngine(opts...)
	}
	for i := 0; i < 3; i++ {
		buf := &lockedBuf{}
		l := log.New(buf, "", 0)
		ts := httptest.NewServer(server.New(engine(l), server.WithLogger(l)))
		t.Cleanup(ts.Close)
		c.replicas = append(c.replicas, ts)
		c.replogs = append(c.replogs, buf)
	}
	c.reference = httptest.NewServer(server.New(engine(nil)))
	t.Cleanup(c.reference.Close)

	urls := make([]string, len(c.replicas))
	for i, ts := range c.replicas {
		urls[i] = ts.URL
	}
	c.routerLog = &lockedBuf{}
	rt, err := router.New(router.Options{
		Replicas: urls,
		Logger:   log.New(c.routerLog, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	c.routerTS = httptest.NewServer(rt)
	t.Cleanup(c.routerTS.Close)
	return c
}

// post returns status and body of a JSON POST.
func post(t *testing.T, base, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func TestRouterByteIdentity(t *testing.T) {
	c := newCluster(t)
	requests := []struct {
		name, method, path, body string
	}{
		{"predict", "POST", "/v1/predict",
			`{"schema_version":1,"workload":"mcf","config":{"name":"reference"}}`},
		{"predict-other-workload", "POST", "/v1/predict",
			`{"schema_version":1,"workload":"gcc","config":{"name":"lowpower"}}`},
		{"sweep", "POST", "/v1/sweep",
			`{"schema_version":1,"workload":"mcf","space":{"kind":"design","stride":9}}`},
		{"pareto", "POST", "/v1/pareto",
			`{"schema_version":1,"workload":"gcc","space":{"kind":"design","stride":9},"cap_watts":25}`},
		{"evaluate-cross-workload", "POST", "/v1/evaluate",
			`{"schema_version":1,"workloads":["mcf","gcc"],"configs":[{"name":"reference"},{"name":"lowpower"}],"options":{}}`},
		{"workloads", "GET", "/v1/workloads", ""},
		{"predict-unknown", "POST", "/v1/predict",
			`{"schema_version":1,"workload":"nope","config":{"name":"reference"}}`},

		// Evaluate shapes the splice must join as one replica writes them:
		// item errors mid-answer, a workload repeated over a space, and an
		// inline config that fails as an item error.
		{"evaluate-unknown-mid-answer", "POST", "/v1/evaluate",
			`{"schema_version":1,"workloads":["mcf","nope","gcc"],"configs":[{"name":"reference"},{"name":"lowpower"}],"options":{}}`},
		{"evaluate-repeated-workload-space", "POST", "/v1/evaluate",
			`{"schema_version":1,"workloads":["mcf","mcf"],"space":{"kind":"design","stride":27},"options":{}}`},
		{"evaluate-inline-item-error", "POST", "/v1/evaluate",
			`{"schema_version":1,"workloads":["mcf","gcc"],"configs":[{"config":{"Name":"bad"}}],"options":{}}`},

		// Requests a replica refuses get that replica's verdict, not one
		// the split would produce.
		{"evaluate-unknown-top-level-field", "POST", "/v1/evaluate",
			`{"schema_version":1,"workloads":["mcf","gcc"],"configs":[{"name":"reference"}],"options":{},"bogus":1}`},
		{"evaluate-unknown-inline-config-field", "POST", "/v1/evaluate",
			`{"schema_version":1,"workloads":["mcf","gcc"],"configs":[{"config":{"Name":"bad","width":4}}],"options":{}}`},
		{"evaluate-empty-second-workload", "POST", "/v1/evaluate",
			`{"schema_version":1,"workloads":["mcf",""],"configs":[{"name":"reference"}],"options":{}}`},
		{"evaluate-trailing-data", "POST", "/v1/evaluate",
			`{"schema_version":1,"workloads":["mcf","gcc"],"configs":[{"name":"reference"}],"options":{}} {}`},
	}
	for _, req := range requests {
		t.Run(req.name, func(t *testing.T) {
			var viaRouter, direct string
			var routerStatus, directStatus int
			if req.method == "GET" {
				routerStatus, viaRouter = get(t, c.routerTS.URL, req.path)
				directStatus, direct = get(t, c.reference.URL, req.path)
			} else {
				routerStatus, viaRouter = post(t, c.routerTS.URL, req.path, req.body)
				directStatus, direct = post(t, c.reference.URL, req.path, req.body)
			}
			if routerStatus != directStatus {
				t.Fatalf("status %d via router, %d direct", routerStatus, directStatus)
			}
			if viaRouter != direct {
				t.Errorf("responses differ:\nrouter: %.400s\ndirect: %.400s", viaRouter, direct)
			}
		})
	}
}

const searchBody = `{"schema_version":1,"workload":"mcf","space":{"kind":"design"},` +
	`"strategy":{"kind":"genetic","seed":11,"population":16,"generations":6},` +
	`"objective":"ed2p","cap_watts":25,"budget":243}`

func searchRequest(t *testing.T) *api.SearchRequest {
	t.Helper()
	req := &api.SearchRequest{}
	if err := json.Unmarshal([]byte(searchBody), req); err != nil {
		t.Fatal(err)
	}
	return req
}

func TestRouterSearchByteIdentity(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()

	reports := make([]string, 2)
	for i, base := range []string{c.routerTS.URL, c.reference.URL} {
		cl := client.New(base)
		final, err := cl.Search(ctx, searchRequest(t), time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.Job.State != api.JobDone || final.Job.Report == nil {
			t.Fatalf("job via %s = %+v", base, final.Job)
		}
		data, err := json.Marshal(final.Job.Report)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = string(data)
	}
	if reports[0] != reports[1] {
		t.Errorf("routed report differs from the local one:\n%.400s\n%.400s", reports[0], reports[1])
	}
}

func TestRouterReplicaLoss(t *testing.T) {
	c := newCluster(t)
	body := `{"schema_version":1,"workload":"mcf","config":{"name":"reference"}}`
	status, want := post(t, c.reference.URL, "/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("reference predict: %d %s", status, want)
	}

	// Kill replicas one by one: every predict must keep answering the
	// reference bytes through rehash-and-retry, down to the last replica.
	for kill := 0; kill < 2; kill++ {
		c.replicas[kill].Close()
		for _, wl := range []string{"mcf", "gcc"} {
			b := strings.Replace(body, "mcf", wl, 1)
			_, wantWL := post(t, c.reference.URL, "/v1/predict", b)
			status, got := post(t, c.routerTS.URL, "/v1/predict", b)
			if status != http.StatusOK {
				t.Fatalf("predict %s with %d replicas down: %d %s", wl, kill+1, status, got)
			}
			if got != wantWL {
				t.Errorf("predict %s with %d replicas down differs from reference", wl, kill+1)
			}
		}
	}

	// With every replica gone the router answers 502, not a hang.
	c.replicas[2].Close()
	status, got := post(t, c.routerTS.URL, "/v1/predict", body)
	if status != http.StatusBadGateway {
		t.Fatalf("predict with all replicas down: %d %s", status, got)
	}
}

func TestRouterSearchEventsSSE(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()
	cl := client.New(c.routerTS.URL)

	sub, err := cl.SubmitSearch(ctx, searchRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	es, err := cl.SearchEvents(ctx, sub.Job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	var events []*api.SearchEvent
	for {
		ev, err := es.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	progress, fronts := 0, 0
	var terminal *api.SearchEvent
	for _, ev := range events {
		switch {
		case ev.Type == api.SearchEventProgress:
			progress++
		case ev.Type == api.SearchEventFront:
			fronts++
		case ev.Terminal():
			terminal = ev
		}
	}
	if progress < 2 || fronts < 1 {
		t.Errorf("%d progress and %d front events through the router, want >=2 and >=1", progress, fronts)
	}
	if terminal == nil || terminal.Type != api.JobDone || terminal.Report == nil {
		t.Fatalf("no terminal done event with a report (terminal=%+v)", terminal)
	}

	// The SSE terminal report and the polled report are the same bytes.
	final, err := cl.SearchJob(ctx, sub.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(terminal.Report)
	want, _ := json.Marshal(final.Job.Report)
	if string(got) != string(want) {
		t.Errorf("SSE terminal report differs from the polled report:\n%.300s\n%.300s", got, want)
	}

	// Resuming mid-stream delivers exactly the remainder.
	if len(events) >= 2 {
		resumed, err := cl.SearchEvents(ctx, sub.Job.ID, events[0].Seq)
		if err != nil {
			t.Fatal(err)
		}
		defer resumed.Close()
		first, err := resumed.Next()
		if err != nil {
			t.Fatal(err)
		}
		if first.Seq != events[0].Seq+1 {
			t.Errorf("resume after seq %d starts at %d", events[0].Seq, first.Seq)
		}
	}
}

func TestRouterSweepStream(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()
	cl := client.New(c.routerTS.URL)
	req := &api.SweepRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      "gcc",
		Space:         &api.SpaceSpec{Kind: "design", Stride: 5},
	}
	envelope, err := cl.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := cl.SweepStream(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.Header().Workload != "gcc" || ss.Header().Count != len(envelope.Results) {
		t.Fatalf("stream header = %+v, want gcc with %d items", ss.Header(), len(envelope.Results))
	}
	n := 0
	for {
		item, err := ss.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if item.Index != n {
			t.Fatalf("item %d carries index %d", n, item.Index)
		}
		got, _ := json.Marshal(item.Result)
		want, _ := json.Marshal(envelope.Results[item.Index])
		if string(got) != string(want) {
			t.Errorf("streamed item %d differs from the envelope result", item.Index)
		}
		n++
	}
	if n != len(envelope.Results) {
		t.Fatalf("stream delivered %d items, envelope has %d", n, len(envelope.Results))
	}
	tr := ss.Trailer()
	if tr == nil || !tr.Done || tr.Results != len(envelope.Results)-len(envelope.Errors) {
		t.Errorf("trailer = %+v", tr)
	}
}

func TestRouterRequestIDPropagation(t *testing.T) {
	c := newCluster(t)
	const rid = "rid-propagation-test-1"
	req, err := http.NewRequest(http.MethodPost, c.routerTS.URL+"/v1/predict",
		strings.NewReader(`{"schema_version":1,"workload":"mcf","config":{"name":"reference"}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.RequestIDHeader, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(api.RequestIDHeader); got != rid {
		t.Errorf("router echoed rid %q, want %q", got, rid)
	}
	if !strings.Contains(c.routerLog.String(), "rid="+rid) {
		t.Error("router log has no line with the request id")
	}
	found := false
	for _, buf := range c.replogs {
		if strings.Contains(buf.String(), "rid="+rid) {
			found = true
		}
	}
	if !found {
		t.Error("no replica log line carries the forwarded request id")
	}
}

func TestRouterRegisterThroughRouter(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()
	cl := client.New(c.routerTS.URL)
	if _, err := cl.UploadProfile(ctx, "uploaded-mcf", testProfile(t, "mcf")); err != nil {
		t.Fatal(err)
	}
	// The upload landed in the shared store: every placement of the new
	// name answers, and the reference daemon sees it too.
	status, got := post(t, c.routerTS.URL, "/v1/predict",
		`{"schema_version":1,"workload":"uploaded-mcf","config":{"name":"reference"}}`)
	if status != http.StatusOK {
		t.Fatalf("predict uploaded profile via router: %d %s", status, got)
	}
	status, want := post(t, c.reference.URL, "/v1/predict",
		`{"schema_version":1,"workload":"uploaded-mcf","config":{"name":"reference"}}`)
	if status != http.StatusOK {
		t.Fatalf("predict uploaded profile direct: %d %s", status, want)
	}
	if got != want {
		t.Error("uploaded profile predicts differently via router")
	}
}

func TestRouterHealthz(t *testing.T) {
	c := newCluster(t)
	c.rt.CheckHealth(context.Background())
	status, body := get(t, c.routerTS.URL, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, body)
	}
	var health api.RouterHealthResponse
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Members) != 3 {
		t.Fatalf("health = %+v", health)
	}
	for i, m := range health.Members {
		if !m.Healthy {
			t.Errorf("member %d (%s) unhealthy", i, m.URL)
		}
		if i > 0 && health.Members[i-1].URL > m.URL {
			t.Error("members not sorted by URL")
		}
	}
}

func TestRouterUnknownJob(t *testing.T) {
	c := newCluster(t)
	status, body := get(t, c.routerTS.URL, "/v1/search/job-missing-1")
	if status != http.StatusNotFound {
		t.Fatalf("unknown job: %d %s", status, body)
	}
	var env api.ErrorResponse
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == "" {
		t.Fatalf("unknown-job body is not an error envelope: %s", body)
	}
}

// TestRouterJobFollowsReplicaAcrossRestart exercises the probe path: a
// router that forgot its job routes (fresh instance) still finds the job
// by asking the replicas.
func TestRouterJobFollowsReplicaAcrossRestart(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()
	cl := client.New(c.routerTS.URL)
	final, err := cl.Search(ctx, searchRequest(t), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	// A second router over the same replicas has never seen the job.
	urls := make([]string, len(c.replicas))
	for i, ts := range c.replicas {
		urls[i] = ts.URL
	}
	rt2, err := router.New(router.Options{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(rt2)
	defer ts2.Close()
	found, err := client.New(ts2.URL).SearchJob(ctx, final.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(found.Job)
	b, _ := json.Marshal(final.Job)
	if string(a) != string(b) {
		t.Errorf("re-found job differs:\n%.300s\n%.300s", a, b)
	}
}
