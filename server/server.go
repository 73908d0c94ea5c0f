// Package server exposes a mipp.Engine over HTTP: the handler behind the
// mippd daemon. Every endpoint speaks the versioned JSON DTOs of mipp/api,
// and mipp/client is its symmetric consumer — a request answered through
// this handler carries exactly the bytes the in-process engine would have
// produced.
//
// Routes:
//
//	POST   /v1/profiles         register a profile (inline envelope or built-in workload)
//	GET    /v1/profiles/{name}  one profile's metadata (digest, size, residency)
//	DELETE /v1/profiles/{name}  drop a profile (and its stored object)
//	GET    /v1/workloads        list registered profiles
//	POST   /v1/predict          one (workload, config) prediction
//	POST   /v1/sweep            one workload × many configs, per-config errors
//	                            (?stream=1: NDJSON header/item/trailer frames)
//	POST   /v1/evaluate         workloads × configs batch, per-item errors
//	POST   /v1/pareto           sweep + Pareto frontier / power cap / ED²P decisions
//	POST   /v1/search           submit an async design-space search job
//	GET    /v1/search/{id}      poll a search job (progress, then the report)
//	GET    /v1/search/{id}/events  SSE stream of progress/front/terminal events
//	DELETE /v1/search/{id}      cancel a search job
//	GET    /v1/fidelity         model-vs-simulator error report (?wait=1 flushes the sampler)
//	GET    /v1/store/index             replication: catalog + generation (ETag/304)
//	GET    /v1/store/objects/{digest}  replication: one canonical envelope by digest
//	PUT    /v1/store/objects/{digest}  replication: upload an envelope (?name=)
//	DELETE /v1/store/objects/{digest}  replication: drop every name referencing digest
//	GET    /healthz             liveness + registry, cache, search-job and store counters
//	GET    /metrics             Prometheus text exposition of every instrument
//
// Every response echoes an X-Request-Id header (the caller's, or a fresh
// one), and every request log line carries it as rid=, so a prediction can
// be traced through mipp-router to the replica that answered it. With a
// logger configured the middleware also opens a trace span per request
// (adopting the caller's X-Span-Id as the remote parent), under which the
// engine's store-load, compile, and search-generation spans nest. The
// /v1/store endpoints exist only when the engine's backing store supports
// content-addressed replication (mipp.ObjectStore); without one they
// answer 404.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"sync"
	"time"

	"mipp"
	"mipp/api"
	"mipp/obs"
)

// DefaultMaxBodyBytes bounds request bodies (profiles for long traces run
// to tens of MB; design-space sweeps with inline configs are far smaller).
const DefaultMaxBodyBytes = 256 << 20

// Server is the HTTP front end of an Engine. It is an http.Handler; wire it
// into any mux or serve it directly.
type Server struct {
	engine   *mipp.Engine
	logger   *log.Logger
	maxBody  int64
	started  time.Time
	handlers http.Handler
	// objects is the engine's backing store when it supports
	// content-addressed replication; nil otherwise (the /v1/store
	// endpoints then answer 404).
	objects mipp.ObjectStore
	// metrics is the registry /metrics serves, chained to obs.Default() so
	// the kernel's process-wide counters are included; per-route HTTP
	// instruments, the engine's instruments, and the error-sentinel
	// counters register on it at construction.
	metrics *obs.Registry
	// errors counts error responses by sentinel class, pre-registered so
	// every class exposes a zero-valued series from boot.
	errors map[string]*obs.Counter
}

// Option customizes a Server.
type Option func(*Server)

// WithLogger routes request logs (method, path, status, duration) to l; nil
// disables request logging.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithMaxBodyBytes caps accepted request bodies.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) { s.maxBody = n }
}

// New wraps engine in the HTTP service surface.
func New(engine *mipp.Engine, opts ...Option) *Server {
	s := &Server{
		engine:  engine,
		maxBody: DefaultMaxBodyBytes,
		started: time.Now(),
		metrics: obs.NewRegistry(obs.WithBase(obs.Default())),
	}
	for _, o := range opts {
		o(s)
	}
	s.objects, _ = engine.ProfileStore().(mipp.ObjectStore)
	s.engine.MetricsInto(s.metrics)
	s.errors = make(map[string]*obs.Counter, len(errorSentinels))
	for _, sentinel := range errorSentinels {
		//mipp:allow obshygiene pre-registering one series per sentinel at startup
		s.errors[sentinel] = s.metrics.Counter("mipp_http_errors_total",
			"Error responses, by sentinel class.", obs.Label{Key: "sentinel", Value: sentinel})
	}
	mux := http.NewServeMux()
	// route registers a handler wrapped in its per-route HTTP instruments.
	// The mux pattern doubles as the route label — instrumentation must
	// happen here, at registration, because the matched pattern is not
	// recoverable from an outer middleware.
	route := func(pattern string, h http.Handler) {
		mux.Handle(pattern, obs.NewHTTPStats(s.metrics, pattern).Wrap(h))
	}
	routeFunc := func(pattern string, h http.HandlerFunc) { route(pattern, h) }
	routeFunc("POST /v1/profiles", handleJSON(s, s.engine.RegisterProfile))
	routeFunc("GET /v1/profiles/{name}", s.handleProfileGet)
	routeFunc("DELETE /v1/profiles/{name}", s.handleProfileDelete)
	routeFunc("POST /v1/predict", handleJSON(s, s.engine.Predict))
	routeFunc("POST /v1/sweep", s.handleSweep)
	routeFunc("POST /v1/evaluate", handleJSON(s, s.engine.Evaluate))
	routeFunc("POST /v1/pareto", handleJSON(s, s.engine.Pareto))
	routeFunc("POST /v1/search", s.handleSearchSubmit)
	routeFunc("GET /v1/search/{id}", s.handleSearchGet)
	routeFunc("GET /v1/search/{id}/events", s.handleSearchEvents)
	routeFunc("DELETE /v1/search/{id}", s.handleSearchCancel)
	routeFunc("GET /v1/workloads", s.handleWorkloads)
	routeFunc("GET /v1/fidelity", s.handleFidelity)
	routeFunc("GET /v1/store/index", s.handleStoreIndex)
	routeFunc("GET /v1/store/objects/{digest}", s.handleStoreObjectGet)
	routeFunc("PUT /v1/store/objects/{digest}", s.handleStoreObjectPut)
	routeFunc("DELETE /v1/store/objects/{digest}", s.handleStoreObjectDelete)
	routeFunc("GET /healthz", s.handleHealthz)
	// The scrape endpoint itself is not instrumented: scrapes should not
	// move the series they read.
	mux.Handle("GET /metrics", s.metrics.Handler())
	s.handlers = s.instrumented(mux)
	return s
}

// MetricsRegistry returns the registry /metrics serves, so a daemon can
// expose the same instruments on a separate debug listener
// (obs.DebugHandler) next to pprof.
func (s *Server) MetricsRegistry() *obs.Registry { return s.metrics }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handlers.ServeHTTP(w, r)
}

// statusWriter records the status code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the streaming handlers (SSE,
// NDJSON sweep) can flush through the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrumented is the outermost middleware: it assigns (or adopts) the
// request ID, echoes it on the response, threads it through the request
// context for the handlers' own log lines, opens the request's root trace
// span (adopting an X-Span-Id header as the remote parent, so the span
// hangs under the caller's), and writes the request log. Per-route metrics
// live inside the mux (see New) because the route pattern is not visible
// out here.
func (s *Server) instrumented(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(api.RequestIDHeader)
		if rid == "" {
			rid = api.NewRequestID()
		}
		w.Header().Set(api.RequestIDHeader, rid)
		ctx := api.ContextWithRequestID(r.Context(), rid)
		if remote := r.Header.Get(api.SpanIDHeader); remote != "" {
			ctx = obs.ContextWithRemoteParent(ctx, remote)
		}
		ctx, span := obs.StartSpan(ctx, s.logger, rid, "http "+r.Method+" "+r.URL.Path)
		r = r.WithContext(ctx)
		if s.logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		span.Finish()
		s.logger.Printf("%s %s %d %s rid=%s", r.Method, r.URL.Path, sw.status, time.Since(t0).Round(time.Microsecond), rid)
	})
}

// decodeRequest reads one JSON request DTO with unknown-field and
// trailing-data rejection, writing the error response itself on failure.
func decodeRequest[Req any](s *Server, w http.ResponseWriter, r *http.Request) (*Req, bool) {
	req := new(Req)
	if err := api.DecodeRequest(http.MaxBytesReader(w, r.Body, s.maxBody), req); err != nil {
		s.writeError(w, decodeStatus(err), err)
		return nil, false
	}
	return req, true
}

// handleJSON adapts one engine method to HTTP: decode the request DTO with
// unknown-field rejection, call the engine with the request context, map
// errors onto statuses, and encode the response DTO.
func handleJSON[Req any, Resp any](s *Server, call func(ctx context.Context, req *Req) (*Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeRequest[Req](s, w, r)
		if !ok {
			return
		}
		resp, err := call(r.Context(), req)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// logf logs through the server's logger when one is configured.
func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// handleSearchSubmit admits an async search job. The assigned job ID goes
// to the request log so operators can line later polls up with the submit.
func (s *Server) handleSearchSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest[api.SearchRequest](s, w, r)
	if !ok {
		return
	}
	resp, err := s.engine.SubmitSearch(r.Context(), req)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.logf("search job %s: submitted workload=%s strategy=%s space=%d budget=%d rid=%s",
		resp.Job.ID, resp.Job.Workload, resp.Job.Strategy, resp.Job.SpaceSize, req.Budget,
		api.RequestIDFromContext(r.Context()))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSearchGet(w http.ResponseWriter, r *http.Request) {
	resp, err := s.engine.SearchJob(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSearchCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, err := s.engine.CancelSearch(r.Context(), id)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.logf("search job %s: cancel requested, state=%s after %d evaluations rid=%s",
		id, resp.Job.State, resp.Job.Evaluations, api.RequestIDFromContext(r.Context()))
	writeJSON(w, http.StatusOK, resp)
}

// decodeStatus distinguishes "shrink the upload" (413) from "fix the JSON"
// (400) for body-decoding failures.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleProfileGet serves one profile's metadata; unknown names map to 404
// through ErrUnknownWorkload like every evaluation path.
func (s *Server) handleProfileGet(w http.ResponseWriter, r *http.Request) {
	resp, err := s.engine.ProfileInfo(r.Context(), r.PathValue("name"))
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleProfileDelete drops a profile — from memory and from the daemon's
// store, when it runs with one.
func (s *Server) handleProfileDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resp, err := s.engine.DeleteProfile(r.Context(), name)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.logf("profile %q: deleted rid=%s", name, api.RequestIDFromContext(r.Context()))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	resp, err := s.engine.Workloads(r.Context())
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFidelity serves the fidelity observatory's report. ?wait=1 flushes
// the sampler queue first (bounded by the request context), so a test or CI
// step that just served a batch reads a report covering it. On an engine
// without fidelity sampling it answers enabled=false rather than 404 — the
// route's existence should not depend on daemon flags.
func (s *Server) handleFidelity(w http.ResponseWriter, r *http.Request) {
	wait := r.URL.Query().Get("wait") == "1"
	rep, err := s.engine.FidelityReport(r.Context(), wait)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, api.FidelityResponse{
		SchemaVersion: api.SchemaVersion,
		Enabled:       s.engine.FidelityEnabled(),
		Report:        rep,
	})
}

// healthResponse is the /healthz body: liveness plus the engine counters a
// load balancer or operator wants at a glance.
type healthResponse struct {
	SchemaVersion       int    `json:"schema_version"`
	Status              string `json:"status"`
	UptimeSeconds       int64  `json:"uptime_seconds"`
	Workloads           int    `json:"workloads"`
	CachedPredictors    int    `json:"cached_predictors"`
	CacheHits           uint64 `json:"cache_hits"`
	CacheMisses         uint64 `json:"cache_misses"`
	SearchJobsInFlight  int    `json:"search_jobs_in_flight"`
	SearchJobsCompleted uint64 `json:"search_jobs_completed"`
	// Store reports the backing profile store's counters; omitted when
	// the engine runs without one.
	Store *storeHealth `json:"store,omitempty"`
	// Fidelity reports the fidelity observatory's aggregates; omitted when
	// the engine runs without sampling.
	Fidelity *api.FidelityStats `json:"fidelity,omitempty"`
}

// storeHealth is the /healthz view of mipp.StoreStats.
type storeHealth struct {
	Objects          int    `json:"objects"`
	ResidentEntries  int    `json:"resident_entries"`
	ResidentBytes    int64  `json:"resident_bytes"`
	MaxResidentBytes int64  `json:"max_resident_bytes"`
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Loads            uint64 `json:"loads"`
	Evictions        uint64 `json:"evictions"`
	EvictedBytes     uint64 `json:"evicted_bytes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Stats()
	h := healthResponse{
		SchemaVersion:       api.SchemaVersion,
		Status:              "ok",
		UptimeSeconds:       int64(time.Since(s.started).Seconds()),
		Workloads:           st.Profiles,
		CachedPredictors:    st.CachedPredictors,
		CacheHits:           st.CacheHits,
		CacheMisses:         st.CacheMisses,
		SearchJobsInFlight:  st.SearchJobsInFlight,
		SearchJobsCompleted: st.SearchJobsCompleted,
	}
	if st.Store != nil {
		h.Store = &storeHealth{
			Objects:          st.Store.Objects,
			ResidentEntries:  st.Store.ResidentEntries,
			ResidentBytes:    st.Store.ResidentBytes,
			MaxResidentBytes: st.Store.MaxResidentBytes,
			Hits:             st.Store.Hits,
			Misses:           st.Store.Misses,
			Loads:            st.Store.Loads,
			Evictions:        st.Store.Evictions,
			EvictedBytes:     st.Store.EvictedBytes,
		}
	}
	h.Fidelity = s.engine.FidelityStats()
	writeJSON(w, http.StatusOK, h)
}

// errorSentinels are the label values of mipp_http_errors_total,
// pre-registered at construction so every class exposes a zero-valued
// series from boot.
var errorSentinels = []string{
	"bad_request", "unknown_workload", "unknown_job", "busy", "canceled", "internal",
}

// sentinelFor classifies an error response for the error counter: the
// Evaluator sentinels first, then the status-code class for errors born in
// the transport layer (decode failures, oversized bodies).
func sentinelFor(status int, err error) string {
	switch {
	case errors.Is(err, mipp.ErrUnknownWorkload):
		return "unknown_workload"
	case errors.Is(err, mipp.ErrUnknownJob):
		return "unknown_job"
	case errors.Is(err, mipp.ErrBusy):
		return "busy"
	case errors.Is(err, mipp.ErrBadRequest):
		return "bad_request"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case status >= 400 && status < 500:
		return "bad_request"
	}
	return "internal"
}

// writeError writes the error envelope and counts it by sentinel class.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if c := s.errors[sentinelFor(status, err)]; c != nil {
		c.Inc()
	}
	writeError(w, status, err)
}

// statusFor maps service errors onto HTTP statuses via the sentinel errors
// of the Evaluator contract.
func statusFor(err error) int {
	switch {
	case errors.Is(err, mipp.ErrUnknownWorkload), errors.Is(err, mipp.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, mipp.ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, mipp.ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or timed out mid-evaluation.
		return 499
	}
	return http.StatusInternalServerError
}

// writeJSON answers status with v as JSON. The whole value is encoded
// before its one Write, so the status goes out with that Write: a value
// that fails to encode (a non-finite float, say) answers 500 with an error
// envelope instead of status with an empty body. Evaluate and search job
// answers are written by the api package's appenders into a pooled
// buffer, byte for byte what json.Encoder writes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	sw := statusOnWrite{ResponseWriter: w, status: status}
	switch v := v.(type) {
	case *api.BatchResponse:
		writeAppended(&sw, v, api.AppendBatchResponse)
	case *api.SearchJobResponse:
		writeAppended(&sw, v, api.AppendSearchJobResponse)
	default:
		if err := json.NewEncoder(&sw).Encode(v); err != nil && !sw.wrote {
			writeError(w, http.StatusInternalServerError, err)
		}
	}
}

// writeAppended writes v as appendTo encodes it into a pooled buffer.
func writeAppended[T any](sw *statusOnWrite, v *T, appendTo func([]byte, *T) ([]byte, error)) {
	bp := answerBufs.Get().(*[]byte)
	b, err := appendTo((*bp)[:0], v)
	if err != nil {
		writeError(sw.ResponseWriter, http.StatusInternalServerError, err)
	} else {
		sw.Write(b)
	}
	if cap(b) <= maxPooledAnswer {
		*bp = b
		answerBufs.Put(bp)
	}
}

// answerBufs pools the buffers appended answers are encoded into; a buffer
// grown past maxPooledAnswer by one large answer is left to the collector.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledAnswer = 4 << 20

// statusOnWrite writes the status header on the first Write, so nothing is
// committed before the encoder has a body to send.
type statusOnWrite struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (s *statusOnWrite) Write(p []byte) (int, error) {
	if !s.wrote {
		s.wrote = true
		s.WriteHeader(s.status)
	}
	return s.ResponseWriter.Write(p)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, api.ErrorResponse{SchemaVersion: api.SchemaVersion, Error: err.Error()})
}
