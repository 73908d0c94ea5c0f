// Package router implements the mipp distributed tier's front door: an
// HTTP reverse proxy exposing the same /v1 surface as one mippd, fanned
// over N replica daemons. Workload names are consistent-hashed onto a
// bounded-load ring (ring.go), so repeated requests for a workload hit the
// replica whose predictor cache already holds it; search jobs are pinned
// to the replica that accepted them; catalog reads merge every replica's
// answer. Responses are relayed frame-by-frame with a flush per chunk, so
// SSE search events and NDJSON sweep streams pass through live.
//
// The router holds no model state: replicas sharing one profile store
// (mippd -store on a shared path, or -remote-store at a common peer)
// answer byte-identically for any placement, which is what makes replica
// loss a rehash instead of an outage.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mipp/api"
	"mipp/obs"
)

// Options configures a Router.
type Options struct {
	// Replicas are the base URLs of the mippd replicas (required).
	Replicas []string
	// Vnodes is the virtual nodes per replica (default DefaultVnodes).
	Vnodes int
	// LoadFactor is the bounded-load c (default DefaultLoadFactor).
	LoadFactor float64
	// FailThreshold is the consecutive failed health checks that take a
	// replica out of rotation (default 2). Connect errors on live traffic
	// mark it down immediately regardless.
	FailThreshold int
	// Client performs proxied requests. It must not set a global timeout:
	// sweeps and event streams run as long as the work does. Defaults to a
	// pooled transport.
	Client *http.Client
	// HealthClient performs health probes (default: 2s timeout).
	HealthClient *http.Client
	// Logger receives request and membership lines; nil disables logging.
	Logger *log.Logger
	// Metrics substitutes the registry /metrics serves (the default is a
	// fresh registry chained to obs.Default()).
	Metrics *obs.Registry
}

// Router fronts the replica set. It implements http.Handler.
type Router struct {
	ring      *ring
	hc        *http.Client
	healthHC  *http.Client
	logger    *log.Logger
	failLimit int32
	start     time.Time

	// jobs remembers which replica owns each search job the router has
	// seen, so polls, cancels and event streams follow the submit. A
	// forgotten job (router restart, or a route past the table's bound) is
	// re-found by probing replicas.
	jobs *jobRoutes

	// metrics is the registry /metrics serves; fanout times the
	// scatter-gather handlers' full fan-out (evaluate, workloads).
	metrics *obs.Registry
	fanout  *obs.Histogram

	handler http.Handler
}

// New builds a router over the given replicas. Replicas start in rotation;
// run CheckHealth (or HealthLoop) to converge on reality.
func New(opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	seen := make(map[string]bool)
	urls := make([]string, 0, len(opts.Replicas))
	for _, raw := range opts.Replicas {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			continue
		}
		parsed, err := url.Parse(u)
		if err != nil || parsed.Scheme == "" || parsed.Host == "" {
			return nil, fmt.Errorf("router: replica %q is not an absolute URL", raw)
		}
		if !seen[u] {
			seen[u] = true
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	rt := &Router{
		ring:      newRing(urls, opts.Vnodes, opts.LoadFactor),
		hc:        opts.Client,
		healthHC:  opts.HealthClient,
		logger:    opts.Logger,
		failLimit: int32(opts.FailThreshold),
		start:     time.Now(),
		jobs:      newJobRoutes(maxJobRoutesPerReplica * len(urls)),
	}
	if rt.hc == nil {
		rt.hc = &http.Client{}
	}
	if rt.healthHC == nil {
		rt.healthHC = &http.Client{Timeout: 2 * time.Second}
	}
	if rt.failLimit <= 0 {
		rt.failLimit = 2
	}
	rt.metrics = opts.Metrics
	if rt.metrics == nil {
		rt.metrics = obs.NewRegistry(obs.WithBase(obs.Default()))
	}
	rt.fanout = rt.metrics.Histogram("mipp_router_fanout_seconds",
		"Scatter-gather fan-out duration (evaluate, workloads): submit to last replica answer.", nil)
	rt.metrics.GaugeFunc("mipp_router_ring_spread",
		"Largest member's share of the hash circle over the ideal 1/N share (1.0 = perfectly even).",
		rt.ring.spread)
	for _, m := range rt.ring.members {
		m := m
		label := obs.Label{Key: "member", Value: m.url}
		//mipp:allow obshygiene pre-registering one series per ring member at startup
		rt.metrics.RegisterCounter("mipp_router_forwards_total",
			"Requests proxied to this member.", &m.forwards, label)
		//mipp:allow obshygiene pre-registering one series per ring member at startup
		rt.metrics.RegisterCounter("mipp_router_health_transitions_total",
			"Healthy/down flips of this member.", &m.transitions, label)
		//mipp:allow obshygiene pre-registering one series per ring member at startup
		rt.metrics.GaugeFunc("mipp_router_member_healthy",
			"1 while the member is in rotation, 0 while marked down.",
			func() float64 {
				if m.healthy.Load() {
					return 1
				}
				return 0
			}, label)
		//mipp:allow obshygiene pre-registering one series per ring member at startup
		rt.metrics.GaugeFunc("mipp_router_member_inflight",
			"Requests currently proxied to this member.",
			func() float64 { return float64(m.inflight.Load()) }, label)
	}

	mux := http.NewServeMux()
	// route registers a handler wrapped in its per-route HTTP instruments,
	// mirroring the replica server's mux (the pattern is the route label).
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.NewHTTPStats(rt.metrics, pattern).Wrap(h))
	}
	route("POST /v1/predict", rt.byWorkload)
	route("POST /v1/sweep", rt.byWorkload)
	route("POST /v1/pareto", rt.byWorkload)
	route("POST /v1/evaluate", rt.handleEvaluate)
	route("POST /v1/search", rt.handleSearchSubmit)
	route("GET /v1/search/{id}", rt.byJob)
	route("GET /v1/search/{id}/events", rt.byJob)
	route("DELETE /v1/search/{id}", rt.byJob)
	route("POST /v1/profiles", rt.handleRegister)
	route("GET /v1/profiles/{name}", rt.byName)
	route("DELETE /v1/profiles/{name}", rt.byName)
	route("GET /v1/workloads", rt.handleWorkloads)
	route("GET /healthz", rt.handleHealthz)
	// The scrape endpoint is not instrumented: scrapes should not move the
	// series they read.
	mux.Handle("GET /metrics", rt.metrics.Handler())
	rt.handler = rt.instrumented(mux)
	return rt, nil
}

// MetricsRegistry returns the registry /metrics serves, so the daemon can
// expose the same instruments on a separate debug listener
// (obs.DebugHandler) next to pprof.
func (rt *Router) MetricsRegistry() *obs.Registry { return rt.metrics }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

func (rt *Router) logf(format string, args ...any) {
	if rt.logger != nil {
		rt.logger.Printf(format, args...)
	}
}

// statusWriter mirrors the server's: records the status for the log line
// and forwards Flush so streamed responses pass through unbuffered.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrumented assigns or adopts the X-Request-Id, echoes it, and logs one
// line per request. The same id is forwarded to the replica, so a request
// can be traced router → replica by grepping both logs for rid=. With a
// logger it also opens the router's root span for the request, adopting the
// caller's X-Span-Id as the remote parent; send stamps the router's span on
// the hop to the replica, so the replica's spans nest under it.
func (rt *Router) instrumented(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(api.RequestIDHeader)
		if rid == "" {
			rid = api.NewRequestID()
			r.Header.Set(api.RequestIDHeader, rid)
		}
		w.Header().Set(api.RequestIDHeader, rid)
		ctx := api.ContextWithRequestID(r.Context(), rid)
		if remote := r.Header.Get(api.SpanIDHeader); remote != "" {
			ctx = obs.ContextWithRemoteParent(ctx, remote)
		}
		ctx, span := obs.StartSpan(ctx, rt.logger, rid, "http "+r.Method+" "+r.URL.Path)
		r = r.WithContext(ctx)
		if rt.logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		span.Finish()
		rt.logf("%s %s %d %s rid=%s", r.Method, r.URL.Path, sw.status, time.Since(begin).Round(time.Microsecond), rid)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, api.ErrorResponse{SchemaVersion: api.SchemaVersion, Error: err.Error()})
}

// errNoReplicas is the 502 every route answers when the whole set is down.
var errNoReplicas = errors.New("router: no healthy replicas")

// callerGone reports whether r's caller has hung up or timed out, answering
// the 499 a replica answers then (when w is non-nil). A hop that fails after
// that failed because the router cancelled it, not because the replica is
// down: it must not take the replica out of rotation, and a retry elsewhere
// would fail the same way.
func callerGone(w http.ResponseWriter, r *http.Request) bool {
	err := r.Context().Err()
	if err == nil {
		return false
	}
	if w != nil {
		writeError(w, 499, err)
	}
	return true
}

// readBody buffers the request body so it can be replayed across retries.
func readBody(r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	defer r.Body.Close()
	return io.ReadAll(r.Body)
}

// proxyHeaders are the request headers worth carrying to the replica.
var proxyHeaders = []string{"Content-Type", "Accept", api.RequestIDHeader, "Last-Event-ID", "If-None-Match"}

// send issues the proxied request to m. The caller holds m's inflight
// count; a returned error is a transport failure (the replica never
// answered) and is safe grounds to mark m down and retry elsewhere.
func (rt *Router) send(r *http.Request, m *member, body []byte) (*http.Response, error) {
	target := m.url + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range proxyHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	// The hop carries the router's OWN span as the replica's remote parent
	// (X-Span-Id is deliberately not in proxyHeaders: passing the caller's
	// span through would flatten the tree, hiding the router hop).
	if sp := obs.SpanFromContext(r.Context()); sp != nil {
		req.Header.Set(api.SpanIDHeader, sp.ID)
	}
	m.forwards.Inc()
	return rt.hc.Do(req)
}

// relayHeaders are the response headers worth carrying back. X-Request-Id
// is deliberately absent: the middleware already set it (to the same value
// the replica echoes, since send forwards it).
var relayHeaders = []string{"Content-Type", "Cache-Control", "ETag"}

// relay streams the replica's response to the client, flushing after every
// chunk so SSE events and NDJSON frames are delivered as they are produced,
// not when the response ends.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range relayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// forward routes one buffered-body request by key: pick, proxy, and on a
// transport failure mark the replica down and rehash onto the survivors.
// Retrying is safe for this API — reads are pure and writes are
// content-addressed (re-registering a profile is idempotent).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	rid := api.RequestIDFromContext(r.Context())
	for attempt := 0; attempt < len(rt.ring.members); attempt++ {
		m := rt.ring.pick(key)
		if m == nil {
			break
		}
		m.inflight.Add(1)
		resp, err := rt.send(r, m, body)
		if err != nil {
			m.inflight.Add(-1)
			if callerGone(w, r) {
				return
			}
			m.markDown()
			rt.logf("replica %s: marked down (%v) rid=%s", m.url, err, rid)
			continue
		}
		rt.logf("route %s %s key=%q -> %s rid=%s", r.Method, r.URL.Path, key, m.url, rid)
		rt.relay(w, resp)
		m.inflight.Add(-1)
		return
	}
	writeError(w, http.StatusBadGateway, errNoReplicas)
}

// answers holds the buffers replica answers are read into. sync.Pool drops
// idle buffers within two GC cycles, so a burst of large answers does not
// pin its memory.
var answers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// releaseAnswer returns a buffer sendBuffered filled, once nothing reads
// its bytes any more.
func releaseAnswer(buf *bytes.Buffer) {
	buf.Reset()
	answers.Put(buf)
}

// sendBuffered is forward for handlers that need the replica's response
// body in hand (to record a job route, or to splice). It returns the
// response with its body fully read into a pooled buffer, which the caller
// hands to releaseAnswer once written, or nil after exhausting the set or
// losing the caller (the 502 or 499 is already written when w is non-nil).
func (rt *Router) sendBuffered(w http.ResponseWriter, r *http.Request, key string, body []byte) (*http.Response, *bytes.Buffer, *member) {
	rid := api.RequestIDFromContext(r.Context())
	for attempt := 0; attempt < len(rt.ring.members); attempt++ {
		m := rt.ring.pick(key)
		if m == nil {
			break
		}
		m.inflight.Add(1)
		resp, err := rt.send(r, m, body)
		var data *bytes.Buffer
		if err == nil {
			data = answers.Get().(*bytes.Buffer)
			_, err = data.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		m.inflight.Add(-1)
		if err == nil {
			return resp, data, m
		}
		if data != nil {
			releaseAnswer(data)
		}
		if callerGone(w, r) {
			return nil, nil, nil
		}
		m.markDown()
		rt.logf("replica %s: marked down (%v) rid=%s", m.url, err, rid)
	}
	if w != nil {
		writeError(w, http.StatusBadGateway, errNoReplicas)
	}
	return nil, nil, nil
}

// writeBuffered relays a buffered response verbatim.
func writeBuffered(w http.ResponseWriter, resp *http.Response, data []byte) {
	for _, h := range relayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(data)
}

// byWorkload routes predict, sweep and pareto: the request body's workload
// field is the placement key, so every request about one workload lands on
// the replica whose caches hold it.
func (rt *Router) byWorkload(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read request body: %w", err))
		return
	}
	var peek struct {
		Workload string `json:"workload"`
	}
	// A malformed body still forwards (key ""), so the replica's decoder
	// owns the error message.
	_ = json.Unmarshal(body, &peek)
	rt.forward(w, r, peek.Workload, body)
}

// byName routes the per-profile endpoints by path name.
func (rt *Router) byName(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, r.PathValue("name"), nil)
}

// handleRegister routes POST /v1/profiles by the name the profile will be
// served under: the explicit name, else the inline envelope's workload,
// else the built-in workload being profiled.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read request body: %w", err))
		return
	}
	var peek struct {
		Name     string `json:"name"`
		Workload string `json:"workload"`
		Profile  struct {
			Profile struct {
				Workload string `json:"workload"`
			} `json:"profile"`
		} `json:"profile"`
	}
	_ = json.Unmarshal(body, &peek)
	key := peek.Name
	if key == "" {
		key = peek.Profile.Profile.Workload
	}
	if key == "" {
		key = peek.Workload
	}
	rt.forward(w, r, key, body)
}

// handleSearchSubmit forwards the submit and records which replica
// accepted the job, so every later poll, cancel and event subscription
// for its id goes to the daemon actually running it.
func (rt *Router) handleSearchSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read request body: %w", err))
		return
	}
	var peek struct {
		Workload string `json:"workload"`
	}
	_ = json.Unmarshal(body, &peek)
	resp, data, m := rt.sendBuffered(w, r, peek.Workload, body)
	if resp == nil {
		return
	}
	defer releaseAnswer(data)
	if resp.StatusCode/100 == 2 {
		var out api.SearchJobResponse
		if err := api.DecodeSearchJobResponse(data.Bytes(), &out); err == nil && out.Job.ID != "" {
			rt.jobs.store(out.Job.ID, m)
			rt.logf("search job %s: routed to %s rid=%s", out.Job.ID, m.url, api.RequestIDFromContext(r.Context()))
		}
	}
	writeBuffered(w, resp, data.Bytes())
}

// findJob resolves a job id to its owning replica: the remembered route
// if that replica is still up, else a probe of every healthy replica (a
// router restart forgets its routes; the jobs themselves survive on the
// replicas).
func (rt *Router) findJob(ctx context.Context, id string) *member {
	if m := rt.jobs.load(id); m != nil {
		if m.healthy.Load() {
			return m
		}
		rt.jobs.delete(id)
	}
	for _, m := range rt.ring.healthyMembers() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/v1/search/"+url.PathEscape(id), nil)
		if err != nil {
			continue
		}
		resp, err := rt.healthHC.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			m.markDown()
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 == 2 {
			rt.jobs.store(id, m)
			return m
		}
	}
	return nil
}

// byJob routes the per-job endpoints (poll, cancel, event stream) to the
// replica that owns the job.
func (rt *Router) byJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m := rt.findJob(r.Context(), id)
	if m == nil {
		if !callerGone(w, r) {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown search job %q", id))
		}
		return
	}
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	resp, err := rt.send(r, m, nil)
	if err != nil {
		if callerGone(w, r) {
			return
		}
		m.markDown()
		writeError(w, http.StatusBadGateway, fmt.Errorf("replica %s: %w", m.url, err))
		return
	}
	// A cancelled job needs no route, and neither does one its owner has
	// forgotten.
	if r.Method == http.MethodDelete || resp.StatusCode == http.StatusNotFound {
		rt.jobs.delete(id)
	}
	rt.relay(w, resp)
}

// batchHead, batchSep and batchTail frame a spliced evaluate answer exactly
// as the replicas' encoding/json frames an api.BatchResponse.
var (
	batchHead = []byte(`{"schema_version":` + strconv.Itoa(api.SchemaVersion) + `,"items":[`)
	batchSep  = []byte(",")
	batchTail = []byte("]}\n")
)

// handleEvaluate scatter-gathers a cross-workload batch: one sub-request
// per workload, placed like any single-workload request. The replicas'
// item arrays are spliced verbatim in the request's workload order —
// exactly the row-major item order one replica would produce, framed as
// one replica frames it — so the answer is byte-identical to a single-node
// one without the router decoding or re-encoding any item.
func (rt *Router) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read request body: %w", err))
		return
	}
	// The router splits only requests every replica accepts, decoded and
	// validated as a replica does.
	req := new(api.BatchRequest)
	if err = api.DecodeRequest(bytes.NewReader(body), req); err == nil {
		err = req.Validate()
	}
	if err != nil || len(req.Workloads) == 1 {
		// One replica answers it whole: a single workload at its own
		// placement, or a request the replicas refuse, so the verdict is
		// the one a single daemon gives.
		key := ""
		if err == nil {
			key = req.Workloads[0]
		}
		rt.forward(w, r, key, body)
		return
	}

	type part struct {
		resp *http.Response
		data *bytes.Buffer
	}
	parts := make([]part, len(req.Workloads))
	t := obs.StartTimer()
	var wg sync.WaitGroup
	for i, workload := range req.Workloads {
		sub := *req
		sub.Workloads = []string{workload}
		subBody, err := json.Marshal(&sub)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		wg.Add(1)
		go func(i int, key string, subBody []byte) {
			defer wg.Done()
			resp, data, _ := rt.sendBuffered(nil, r, key, subBody)
			parts[i] = part{resp: resp, data: data}
		}(i, workload, subBody)
	}
	wg.Wait()
	t.ObserveInto(rt.fanout)
	// The spliced items point into the answers' buffers: release them only
	// after the response is written.
	defer func() {
		for _, p := range parts {
			if p.data != nil {
				releaseAnswer(p.data)
			}
		}
	}()

	items := make([][]byte, 0, len(parts))
	for i, p := range parts {
		if p.resp == nil {
			if !callerGone(w, r) {
				writeError(w, http.StatusBadGateway, errNoReplicas)
			}
			return
		}
		if p.resp.StatusCode/100 != 2 {
			// Relay the first failing workload's verdict verbatim (first by
			// request order, so the failure is deterministic).
			writeBuffered(w, p.resp, p.data.Bytes())
			return
		}
		inner, err := api.BatchItems(p.data.Bytes())
		if err != nil {
			writeError(w, http.StatusBadGateway,
				fmt.Errorf("replica answer for workload %q: %w", req.Workloads[i], err))
			return
		}
		if len(inner) > 0 {
			items = append(items, inner)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A failed write means the caller hung up: nobody is left to tell.
	_, _ = w.Write(batchHead)
	for i, it := range items {
		if i > 0 {
			_, _ = w.Write(batchSep)
		}
		_, _ = w.Write(it)
	}
	_, _ = w.Write(batchTail)
}

// handleWorkloads merges every healthy replica's catalog: replicas share a
// store, so entries agree; first replica (by URL) wins on a name, and the
// merged list is re-sorted by name like a single daemon's answer.
func (rt *Router) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	members := rt.ring.healthyMembers()
	type part struct {
		resp *http.Response
		data []byte
		m    *member
	}
	parts := make([]part, len(members))
	t := obs.StartTimer()
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			m.inflight.Add(1)
			defer m.inflight.Add(-1)
			resp, err := rt.send(r, m, nil)
			if err != nil {
				if callerGone(nil, r) {
					return
				}
				m.markDown()
				rt.logf("replica %s: marked down (%v) rid=%s", m.url, err, api.RequestIDFromContext(r.Context()))
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return
			}
			parts[i] = part{resp: resp, data: data, m: m}
		}(i, m)
	}
	wg.Wait()
	t.ObserveInto(rt.fanout)

	seen := make(map[string]bool)
	var workloads []api.WorkloadInfo
	answered := false
	for _, p := range parts {
		if p.resp == nil || p.resp.StatusCode/100 != 2 {
			continue
		}
		var sub api.WorkloadsResponse
		if err := json.Unmarshal(p.data, &sub); err != nil {
			continue
		}
		answered = true
		for _, wl := range sub.Workloads {
			if !seen[wl.Name] {
				seen[wl.Name] = true
				workloads = append(workloads, wl)
			}
		}
	}
	if !answered {
		if !callerGone(w, r) {
			writeError(w, http.StatusBadGateway, errNoReplicas)
		}
		return
	}
	sort.Slice(workloads, func(i, j int) bool { return workloads[i].Name < workloads[j].Name })
	writeJSON(w, http.StatusOK, api.WorkloadsResponse{SchemaVersion: api.SchemaVersion, Workloads: workloads})
}

// handleHealthz reports the router's view of the ring.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := api.RouterHealthResponse{
		SchemaVersion: api.SchemaVersion,
		Status:        "degraded",
		UptimeSeconds: int64(time.Since(rt.start).Seconds()),
	}
	for _, m := range rt.ring.members {
		out.Members = append(out.Members, api.RouterMember{
			URL:      m.url,
			Healthy:  m.healthy.Load(),
			Inflight: m.inflight.Load(),
		})
		if m.healthy.Load() {
			out.Status = "ok"
		}
	}
	out.JobsRouted = rt.jobs.len()
	writeJSON(w, http.StatusOK, out)
}

// CheckHealth probes every replica's /healthz once, concurrently. A
// replica re-enters rotation on the first success; it leaves after
// FailThreshold consecutive failures (or instantly, when live traffic
// hits a connect error).
func (rt *Router) CheckHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range rt.ring.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := rt.healthHC.Do(req)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err == nil && resp.StatusCode/100 == 2 {
				m.fails.Store(0)
				if m.markUp() {
					rt.logf("replica %s: healthy", m.url)
				}
				return
			}
			if fails := m.fails.Add(1); fails >= rt.failLimit && m.markDown() {
				rt.logf("replica %s: marked down after %d failed health checks", m.url, fails)
			}
		}(m)
	}
	wg.Wait()
}

// HealthLoop runs CheckHealth every interval until ctx is done.
func (rt *Router) HealthLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.CheckHealth(ctx)
		}
	}
}
