package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mipp/api"
)

// fakeSearchReplica answers search submits with fresh job IDs and polls
// with 200 for the jobs it still retains, 404 for the rest.
type fakeSearchReplica struct {
	name string
	mu   sync.Mutex
	next int
	jobs map[string]bool
}

func (f *fakeSearchReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var id string
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/search":
		f.next++
		id = fmt.Sprintf("job-%s-%d", f.name, f.next)
		f.jobs[id] = true
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/search/"):
		id = strings.TrimPrefix(r.URL.Path, "/v1/search/")
		if !f.jobs[id] {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown search job %q", id))
			return
		}
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
		return
	}
	writeJSON(w, http.StatusOK, api.SearchJobResponse{SchemaVersion: api.SchemaVersion,
		Job: api.SearchJob{ID: id, State: api.JobDone, Workload: "mcf", Strategy: "random"}})
}

func (f *fakeSearchReplica) forget(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.jobs, id)
}

// TestRouterJobRoutesBounded submits more jobs than the router keeps
// routes for: the table stops at its bound, the oldest route goes first,
// and the evicted job is still reachable through the router, which learns
// its route again. A route whose owner answers 404 is dropped.
func TestRouterJobRoutesBounded(t *testing.T) {
	replicas := map[string]*fakeSearchReplica{}
	var urls []string
	for _, name := range []string{"a", "b"} {
		f := &fakeSearchReplica{name: name, jobs: map[string]bool{}}
		srv := httptest.NewServer(f)
		t.Cleanup(srv.Close)
		replicas[name] = f
		urls = append(urls, srv.URL)
	}
	rt, err := New(Options{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	limit := maxJobRoutesPerReplica * len(urls)
	var ids []string
	for i := 0; i < limit+limit/4; i++ {
		rec := do("POST", "/v1/search", fmt.Sprintf(`{"workload":"w%d"}`, i))
		var sub api.SearchJobResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sub) != nil {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
		ids = append(ids, sub.Job.ID)
	}
	if n := rt.jobs.len(); n != limit {
		t.Fatalf("%d routes after %d submits, want the bound %d", n, len(ids), limit)
	}
	var health api.RouterHealthResponse
	if err := json.Unmarshal(do("GET", "/healthz", "").Body.Bytes(), &health); err != nil || health.JobsRouted != limit {
		t.Fatalf("/healthz jobs_routed = %d (%v), want %d", health.JobsRouted, err, limit)
	}
	oldest := ids[0]
	if rt.jobs.load(oldest) != nil || rt.jobs.load(ids[len(ids)-limit]) == nil {
		t.Fatal("the bound did not evict the oldest routes first")
	}
	if rec := do("GET", "/v1/search/"+oldest, ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), oldest) {
		t.Fatalf("poll of the job whose route was evicted: %d %s", rec.Code, rec.Body)
	}
	if rt.jobs.load(oldest) == nil || rt.jobs.len() != limit {
		t.Fatalf("the probe did not learn the route again within the bound (%d routes)", rt.jobs.len())
	}

	// The owner forgets a job: the router relays its 404 and drops the route.
	newest := ids[len(ids)-1]
	replicas[strings.Split(newest, "-")[1]].forget(newest)
	if rec := do("GET", "/v1/search/"+newest, ""); rec.Code != http.StatusNotFound {
		t.Fatalf("poll of a job its owner forgot: %d %s", rec.Code, rec.Body)
	}
	if rt.jobs.load(newest) != nil || rt.jobs.len() != limit-1 {
		t.Fatalf("the route of a job its owner forgot is still held (%d routes)", rt.jobs.len())
	}
}
