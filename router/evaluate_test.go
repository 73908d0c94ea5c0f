package router_test

// Router tests against fake replicas that answer from fixed tables: the
// evaluate splice's error paths, its allocation cost as answers grow, and
// a caller's cancellation, which must leave every replica in rotation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mipp/api"
	"mipp/router"
)

// fakeReplicas starts n replicas serving h and returns their URLs. Every
// replica answers alike, so no test depends on ring placement.
func fakeReplicas(t *testing.T, n int, h http.HandlerFunc) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

func newRouter(t *testing.T, urls []string) *router.Router {
	t.Helper()
	// Enough idle connections that no hop of a 4-workload fan-out dials.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 8
	t.Cleanup(tr.CloseIdleConnections)
	rt, err := router.New(router.Options{Replicas: urls, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// serve routes one request through rt in process.
func serve(rt *router.Router, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// encode writes v as a replica's encoding/json encoder does.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func evaluateBody(workloads ...string) string {
	quoted, _ := json.Marshal(workloads)
	return `{"schema_version":1,"workloads":` + string(quoted) + `,"configs":[{"name":"reference"}],"options":{}}`
}

func TestRouterEvaluateSpliceErrors(t *testing.T) {
	const item = `{"workload":"ok","config":"reference","error":"x"}`
	answers := map[string]struct {
		status int
		body   string
	}{
		"ok":        {200, `{"schema_version":1,"items":[` + item + `]}` + "\n"},
		"empty":     {200, `{"schema_version":1,"items":[]}` + "\n"},
		"notjson":   {200, "not json\n"},
		"v2":        {200, `{"schema_version":2,"items":[]}` + "\n"},
		"object":    {200, `{"schema_version":1,"items":{}}` + "\n"},
		"null":      {200, `{"schema_version":1,"items":null}` + "\n"},
		"missing-a": {404, `{"schema_version":1,"error":"a"}` + "\n"},
		"missing-b": {404, `{"schema_version":1,"error":"b"}` + "\n"},
	}
	rt := newRouter(t, fakeReplicas(t, 2, func(w http.ResponseWriter, r *http.Request) {
		var req api.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Workloads) != 1 {
			http.Error(w, "fake replica: want one workload", http.StatusTeapot)
			return
		}
		a := answers[req.Workloads[0]]
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(a.status)
		_, _ = io.WriteString(w, a.body)
	}))

	cases := []struct {
		workloads []string
		status    int
		body      string // exact body, or "" to check the 502 names culprit
		culprit   string
	}{
		{[]string{"ok", "ok"}, 200, `{"schema_version":1,"items":[` + item + "," + item + `]}` + "\n", ""},
		{[]string{"empty", "ok", "empty", "ok", "empty"}, 200, `{"schema_version":1,"items":[` + item + "," + item + `]}` + "\n", ""},
		{[]string{"empty", "empty"}, 200, `{"schema_version":1,"items":[]}` + "\n", ""},
		{[]string{"ok", "notjson"}, 502, "", "notjson"},
		{[]string{"ok", "v2"}, 502, "", "v2"},
		{[]string{"ok", "object"}, 502, "", "object"},
		{[]string{"ok", "null"}, 502, "", "null"},
		{[]string{"ok", "missing-a", "missing-b"}, 404, answers["missing-a"].body, ""},
		{[]string{"ok", "missing-b", "missing-a"}, 404, answers["missing-b"].body, ""},
		{[]string{"missing-a", "notjson"}, 404, answers["missing-a"].body, ""},
		{[]string{"notjson", "missing-a"}, 502, "", "notjson"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.workloads, ","), func(t *testing.T) {
			rec := serve(rt, "POST", "/v1/evaluate", evaluateBody(c.workloads...))
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.status, rec.Body)
			}
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Errorf("Content-Type %q", got)
			}
			if c.body != "" {
				if rec.Body.String() != c.body {
					t.Errorf("body\n%s\nwant\n%s", rec.Body, c.body)
				}
				return
			}
			var env api.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("502 body is not an error envelope: %s", rec.Body)
			}
			if want := fmt.Sprintf("workload %q", c.culprit); !strings.Contains(env.Error, want) {
				t.Errorf("error %q does not name %s", env.Error, want)
			}
		})
	}
}

// TestRouterEvaluateSpliceAllocs guards the merge's cost: splicing 243
// items per workload must allocate about what splicing 1 does. Decoding
// and re-encoding the items costs about three allocations per item.
func TestRouterEvaluateSpliceAllocs(t *testing.T) {
	item := api.BatchItem{Workload: "mcf", Config: "design-0", Result: &api.Result{
		Workload: "mcf", Config: "design-0", FrequencyGHz: 2.66,
		Cycles: 1.5e6, Uops: 1e6, Instructions: 8.1e5, CPI: 1.85, TimeSeconds: 5.6e-4,
		CPIStack: api.CPIStack{Base: 0.4, Branch: 0.12, ICache: 0.01, LLCHit: 0.05, DRAM: 1.27},
		Power:    api.PowerStack{Static: 4.2, Core: 7.7, FU: 1.1, Cache: 2.3, DRAM: 0.9, BPred: 0.2},
		Watts:    16.4, EnergyJoules: 9.2e-3, EDP: 5.1e-6, ED2P: 2.9e-9,
		Deff: 3.1, MLP: 1.7, BranchMissRate: 0.043,
	}}
	allocs := func(n int) float64 {
		sub := api.BatchResponse{SchemaVersion: api.SchemaVersion}
		for i := 0; i < n; i++ {
			sub.Items = append(sub.Items, item)
		}
		answer := encode(t, &sub)
		sub.Items = append(append(append(sub.Items, sub.Items...), sub.Items...), sub.Items...)
		want := encode(t, &sub)
		rt := newRouter(t, fakeReplicas(t, 2, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(answer)
		}))
		body := `{"schema_version":1,"workloads":["mcf","gcc","bzip2","lbm"],"space":{"kind":"design"},"options":{}}`
		run := func() {
			if rec := serve(rt, "POST", "/v1/evaluate", body); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("evaluate: %d, %d bytes, want the 4 answers' items spliced", rec.Code, rec.Body.Len())
			}
		}
		run() // open the keep-alive connections
		return testing.AllocsPerRun(20, run)
	}
	one, many := allocs(1), allocs(243)
	t.Logf("allocations per 4-workload evaluate: %.0f at 1 item per workload, %.0f at 243", one, many)
	if many-one >= 250 {
		t.Errorf("243 items per workload allocate %.0f more than 1 item (%.0f vs %.0f), want < 250: is the router decoding items?",
			many-one, many, one)
	}
}

// TestRouterCallerCancelKeepsReplicasInRotation hangs up on slow replicas
// through every route that proxies a live request: the caller's timeout
// must not count as a replica failure, and a caller already gone gets 499.
func TestRouterCallerCancelKeepsReplicasInRotation(t *testing.T) {
	urls := fakeReplicas(t, 2, func(w http.ResponseWriter, r *http.Request) {
		// Reading the body lets the server notice the hang-up.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	rt := newRouter(t, urls)
	done := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.ServeHTTP(w, r)
		done <- struct{}{}
	}))
	t.Cleanup(ts.Close)
	impatient := &http.Client{Timeout: 100 * time.Millisecond}

	// inRotation fails the test unless both members are healthy and have
	// never flipped.
	inRotation := func(after string) {
		t.Helper()
		var health api.RouterHealthResponse
		if err := json.Unmarshal(serve(rt, "GET", "/healthz", "").Body.Bytes(), &health); err != nil {
			t.Fatal(err)
		}
		if health.Status != "ok" {
			t.Errorf("after %s: healthz status %q, want ok", after, health.Status)
		}
		for _, m := range health.Members {
			if !m.Healthy {
				t.Errorf("after %s: member %s out of rotation", after, m.URL)
			}
		}
		metrics := serve(rt, "GET", "/metrics", "").Body.String()
		for _, u := range urls {
			series := fmt.Sprintf(`mipp_router_health_transitions_total{member=%q}`, u)
			if v := seriesValue(metrics, series); v != 0 {
				t.Errorf("after %s: %s = %v, want 0", after, series, v)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	for _, req := range []struct{ method, path, body string }{
		{"POST", "/v1/predict", `{"schema_version":1,"workload":"mcf","config":{"name":"reference"}}`},
		{"POST", "/v1/evaluate", evaluateBody("mcf", "gcc")},
		{"POST", "/v1/search", searchBody},
		{"GET", "/v1/search/job-1", ""},
		{"GET", "/v1/workloads", ""},
	} {
		name := req.method + " " + req.path + " timed out by its caller"
		hreq, err := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := impatient.Do(hreq); err == nil {
			resp.Body.Close()
			t.Fatalf("%s: answered %d before the replicas did", name, resp.StatusCode)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: router handler still running 5s after the caller left", name)
		}
		inRotation(name)

		// A caller gone before the hop gets the 499 a replica answers.
		name = req.method + " " + req.path + " from a caller already gone"
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, strings.NewReader(req.body)).WithContext(ctx))
		if rec.Code != 499 {
			t.Errorf("%s: status %d, want 499", name, rec.Code)
		}
		inRotation(name)
	}
}
