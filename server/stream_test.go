package server

// Streaming and replication handler edge cases not covered by the
// engine-level and router-level integration tests: bad ?stream values,
// bad resume tokens, and the storeless daemon's /v1/store 404s. Then the
// search answers on the wire: byte identity with encoding/json's framing,
// a subscriber that stalls past its channel buffer, and resume cursors.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mipp"
	"mipp/api"
)

func TestSweepStreamParamValidation(t *testing.T) {
	body := `{"schema_version":1,"workload":"mcf","configs":[{"name":"reference"}]}`
	rec := serve(t, "POST", "/v1/sweep?stream=yes", body)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("stream=yes: %d %s", rec.Code, rec.Body)
	}
	rec = serve(t, "POST", "/v1/sweep?stream=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream=1: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 { // header, one item, trailer
		t.Errorf("stream framed %d lines, want 3:\n%s", len(lines), rec.Body)
	}
	// A pre-admission failure must answer with the JSON envelope, not a
	// truncated stream.
	rec = serve(t, "POST", "/v1/sweep?stream=1",
		`{"schema_version":1,"workload":"nope","configs":[{"name":"reference"}]}`)
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("unknown workload stream: %d %s", rec.Code, rec.Body)
	}
}

func TestSearchEventsParamValidation(t *testing.T) {
	rec := serve(t, "GET", "/v1/search/job-x-1/events?after=banana", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad after: %d %s", rec.Code, rec.Body)
	}
	rec = serve(t, "GET", "/v1/search/job-x-1/events", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown job events: %d %s", rec.Code, rec.Body)
	}
}

func TestStoreEndpointsWithoutStore(t *testing.T) {
	// The shared test engine is storeless: every /v1/store route must 404
	// with the configuration hint, so a misdirected peer fails loudly.
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/store/index"},
		{"GET", "/v1/store/objects/sha256:00"},
		{"PUT", "/v1/store/objects/sha256:00?name=x"},
		{"DELETE", "/v1/store/objects/sha256:00"},
	} {
		rec := serve(t, req.method, req.path, "")
		if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "-store") {
			t.Errorf("%s %s without a store: %d %s", req.method, req.path, rec.Code, rec.Body)
		}
	}
}

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	srv := New(testEngine(t))
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rid := rec.Header().Get("X-Request-Id"); rid == "" {
		t.Error("no X-Request-Id assigned")
	}
	req = httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-chosen-id")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rid := rec.Header().Get("X-Request-Id"); rid != "caller-chosen-id" {
		t.Errorf("echoed rid %q, want the caller's", rid)
	}
}

// referenceFrames is the SSE framing of events as encoding/json and one
// fmt.Fprintf per event write it: the reference the handler's appended,
// coalesced frames must match byte for byte.
func referenceFrames(tb testing.TB, events []api.SearchEvent) []byte {
	tb.Helper()
	var b bytes.Buffer
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			tb.Fatal(err)
		}
		fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	}
	return b.Bytes()
}

// encoderBytes is what json.NewEncoder(w).Encode writes for v.
func encoderBytes(tb testing.TB, v any) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// finishedEvents waits for job id to end and returns every event it
// published, from a fresh subscription to its retained log.
func finishedEvents(tb testing.TB, e *mipp.Engine, id string) []api.SearchEvent {
	tb.Helper()
	if _, err := mipp.WaitSearch(context.Background(), e, id, time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	ch, cancel, err := e.SearchEvents(id, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer cancel()
	var events []api.SearchEvent
	for ev := range ch {
		events = append(events, ev)
	}
	if len(events) == 0 || !events[len(events)-1].Terminal() || events[len(events)-1].Seq != len(events) {
		tb.Fatalf("job %s retained %d events, not a whole stream ending with its terminal event", id, len(events))
	}
	return events
}

// TestSearchAnswersByteIdentity pins the search answers' bytes: submit,
// poll and cancel answers are what json.Encoder writes, the event stream
// of a finished fixed-seed job is encoding/json's framing of its events,
// whole and resumed, and the terminal event's report is the polled one.
func TestSearchAnswersByteIdentity(t *testing.T) {
	e := testEngine(t)
	srv := New(e)
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	rec := do("POST", "/v1/search", `{"schema_version":1,"workload":"gcc","space":{"kind":"design"},`+
		`"strategy":{"kind":"hill","seed":12,"restarts":3},"objective":"ed2p","cap_watts":18}`)
	var sub api.SearchJobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if want := encoderBytes(t, &sub); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("submit answer:\n got  %s\n want %s", rec.Body, want)
	}
	id := sub.Job.ID
	events := finishedEvents(t, e, id)

	poll := do("GET", "/v1/search/"+id, "").Body.Bytes()
	snap, err := e.SearchJob(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if want := encoderBytes(t, snap); !bytes.Equal(poll, want) {
		t.Errorf("poll answer:\n got  %s\n want %s", poll, want)
	}
	terminal := events[len(events)-1]
	if terminal.Type != api.JobDone || snap.Job.Report == nil ||
		!bytes.Equal(encoderBytes(t, terminal.Report), encoderBytes(t, snap.Job.Report)) {
		t.Errorf("terminal event %s carries a report that differs from the polled one", terminal.Type)
	}

	for _, after := range []int{0, 1, len(events) / 2, len(events) - 1, len(events)} {
		body := do("GET", fmt.Sprintf("/v1/search/%s/events?after=%d", id, after), "").Body.Bytes()
		if want := referenceFrames(t, events[after:]); !bytes.Equal(body, want) {
			t.Errorf("events after %d of %d:\n got  %.300q\n want %.300q", after, len(events), body, want)
		}
	}
	// A finished job's events are all queued when the handler first wakes:
	// it writes and flushes them once.
	w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/search/"+id+"/events", nil))
	if w.writes != 1 || w.flushesAfterWrite != 1 {
		t.Errorf("%d events went out in %d writes and %d flushes, want 1 and 1", len(events), w.writes, w.flushesAfterWrite)
	}

	cancelled := do("DELETE", "/v1/search/"+id, "").Body.Bytes()
	if want := encoderBytes(t, snap); !bytes.Equal(cancelled, want) {
		t.Errorf("cancel answer of a finished job:\n got  %s\n want %s", cancelled, want)
	}
}

// countingWriter counts Writes, and the Flushes that follow the first.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes, flushesAfterWrite int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}

func (w *countingWriter) Flush() {
	if w.writes > 0 {
		w.flushesAfterWrite++
	}
	w.ResponseRecorder.Flush()
}

// stalledWriter holds every Write until gate closes.
type stalledWriter struct {
	*httptest.ResponseRecorder
	gate <-chan struct{}
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	<-w.gate
	return w.ResponseRecorder.Write(p)
}

// gatedStore serves one profile and holds every load of it until gate
// closes, so a search job on it publishes nothing before the test lets it.
type gatedStore struct {
	name string
	p    *mipp.Profile
	gate <-chan struct{}
}

func (s *gatedStore) Put(string, *mipp.Profile) (mipp.ProfileStoreInfo, error) {
	return mipp.ProfileStoreInfo{}, errors.New("gatedStore is read-only")
}

func (s *gatedStore) Get(name string) (*mipp.Profile, bool, error) {
	if name != s.name {
		return nil, false, nil
	}
	<-s.gate
	return s.p, true, nil
}

func (s *gatedStore) Delete(string) (bool, error) { return false, nil }

func (s *gatedStore) Info(name string) (mipp.ProfileStoreInfo, bool) {
	return mipp.ProfileStoreInfo{Name: name}, name == s.name
}

func (s *gatedStore) Names() []string        { return []string{s.name} }
func (s *gatedStore) Stats() mipp.StoreStats { return mipp.StoreStats{} }

// TestSearchEventsStalledSubscriber runs a job that publishes several times
// more events than a subscriber channel buffers, to a handler that
// subscribed before the first event and whose writer then stalls until the
// job has ended. The engine drops the events the handler could not take,
// except the terminal one; the handler refills the gap from the job's log,
// so the client still receives every event and the report.
func TestSearchEventsStalledSubscriber(t *testing.T) {
	p, err := mipp.NewProfiler().Profile("mcf", testUops)
	if err != nil {
		t.Fatal(err)
	}
	loaded := make(chan struct{})
	load := sync.OnceFunc(func() { close(loaded) })
	defer load()
	e := mipp.NewEngine(mipp.WithEngineStore(&gatedStore{name: "mcf", p: p, gate: loaded}))
	defer e.Close()
	srv := New(e)
	metric := func(name string) float64 {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return metricValue(t, rec.Body.String(), name)
	}
	sub, err := e.SubmitSearch(context.Background(), &api.SearchRequest{SchemaVersion: api.SchemaVersion,
		Workload: "mcf", Space: api.SpaceSpec{Kind: "design"},
		Strategy: api.StrategySpec{Kind: "genetic", Seed: 3, Population: 4, Generations: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Job.ID
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	w := &stalledWriter{ResponseRecorder: httptest.NewRecorder(), gate: gate}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/search/"+id+"/events", nil))
	}()
	for deadline := time.Now().Add(30 * time.Second); metric("mipp_stream_subscribers") < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the handler did not subscribe")
		}
	}
	load()
	events := finishedEvents(t, e, id)
	release()
	select {
	case <-served:
	case <-time.After(30 * time.Second):
		t.Fatal("the event stream did not end")
	}
	// The handler took at most one channel's worth before its first Write
	// stalled, so most of the rest were dropped.
	dropped := metric("mipp_stream_dropped_events_total")
	t.Logf("%.0f of %d events dropped on the stalled subscription", dropped, len(events))
	if dropped < float64(len(events)-2*256) {
		t.Fatalf("%.0f of %d events dropped on the stalled subscription, want at least %d",
			dropped, len(events), len(events)-2*256)
	}
	if want := referenceFrames(t, events); !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("the stalled subscriber received %d bytes, want every event's %d", w.Body.Len(), len(want))
	}
}

var resumeJob struct {
	sync.Once
	id     string
	events []api.SearchEvent
}

// FuzzSearchEventsResume resumes a finished job's event stream from any
// ?after= value and Last-Event-ID header. Only a malformed ?after= answers
// 400; every other request answers 200 with exactly the events past the
// cursor, in order and framed as encoding/json frames them, ending with
// the terminal event. The cursor is ?after= when present, else a positive
// Last-Event-ID, else 0.
func FuzzSearchEventsResume(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"3", ""}, {"", "3"}, {"2", "7"}, {"0", "5"}, {"banana", ""}, {"-1", ""},
		{"", "-5"}, {"+4", ""}, {"99999999999999999999", ""}, {"", "99999999999999999999"},
		{"1e3", ""}, {"", "x\n"}, {" 2", ""}, {"1000000", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, after, lastEventID string) {
		e := testEngine(t)
		resumeJob.Do(func() {
			sub, err := e.SubmitSearch(context.Background(), &api.SearchRequest{SchemaVersion: api.SchemaVersion,
				Workload: "mcf", Space: api.SpaceSpec{Kind: "design"},
				Strategy: api.StrategySpec{Kind: "genetic", Seed: 8, Population: 8, Generations: 5}})
			if err != nil {
				t.Fatal(err)
			}
			resumeJob.id = sub.Job.ID
			resumeJob.events = finishedEvents(t, e, sub.Job.ID)
		})
		if resumeJob.events == nil {
			t.Fatal("no finished job to resume")
		}
		path := "/v1/search/" + resumeJob.id + "/events"
		if after != "" {
			path += "?after=" + url.QueryEscape(after)
		}
		req := httptest.NewRequest("GET", path, nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		rec := httptest.NewRecorder()
		New(e).ServeHTTP(rec, req)

		cursor := 0
		if n, err := strconv.Atoi(lastEventID); err == nil && n > 0 {
			cursor = n
		}
		if after != "" {
			n, err := strconv.Atoi(after)
			if err != nil || n < 0 {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("after=%q answered %d, want 400", after, rec.Code)
				}
				return
			}
			cursor = n
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("after=%q Last-Event-ID=%q answered %d: %s", after, lastEventID, rec.Code, rec.Body)
		}
		rest := resumeJob.events[min(cursor, len(resumeJob.events)):]
		if want := referenceFrames(t, rest); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("after=%q Last-Event-ID=%q (cursor %d):\n got  %.300q\n want %.300q",
				after, lastEventID, cursor, rec.Body, want)
		}
	})
}
