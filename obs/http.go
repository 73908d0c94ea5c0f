package obs

import (
	"net/http"
)

// Shared HTTP instrument names: the server and the router register the same
// families (per-route labels keep them apart), so dashboards and the CI
// smoke assertions use one vocabulary for both tiers.
const (
	httpRequestsName = "mipp_http_requests_total"
	httpRequestsHelp = "HTTP requests served, by route and status-code class."
	httpSecondsName  = "mipp_http_request_seconds"
	httpSecondsHelp  = "HTTP request latency in seconds, by route."
	httpInflightName = "mipp_http_inflight"
	httpInflightHelp = "HTTP requests currently being served, by route."
)

// codeClasses are the status-code class label values, indexed by status/100.
var codeClasses = [...]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}

// HTTPStats instruments one route: request counts by status-code class, a
// latency histogram, and an in-flight gauge. Build one per route at mux
// construction time (the pattern is not recoverable from an outer
// middleware) and wrap the route's handler with Wrap.
type HTTPStats struct {
	requests [len(codeClasses)]*Counter
	seconds  *Histogram
	inflight *Gauge
}

// NewHTTPStats registers the per-route series on r. All five code classes
// are pre-registered so scrapes expose zero-valued series from boot —
// monotonicity checks never race the first error.
func NewHTTPStats(r *Registry, route string) *HTTPStats {
	h := &HTTPStats{}
	for i := 1; i < len(codeClasses); i++ {
		h.requests[i] = r.Counter(httpRequestsName, httpRequestsHelp,
			Label{"route", route}, Label{"code", codeClasses[i]})
	}
	h.seconds = r.Histogram(httpSecondsName, httpSecondsHelp, nil, Label{"route", route})
	h.inflight = r.Gauge(httpInflightName, httpInflightHelp, Label{"route", route})
	return h
}

// codeRecorder captures the response status for the class counter. Flush is
// forwarded so the streaming handlers (SSE, NDJSON) pass through unbuffered.
type codeRecorder struct {
	http.ResponseWriter
	status int
}

func (w *codeRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *codeRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Wrap instruments next: in-flight gauge around the call, latency
// observation and code-class count after it.
func (h *HTTPStats) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.inflight.Add(1)
		t := StartTimer()
		cr := &codeRecorder{ResponseWriter: w}
		next.ServeHTTP(cr, r)
		t.ObserveInto(h.seconds)
		h.inflight.Add(-1)
		if cr.status == 0 {
			cr.status = http.StatusOK
		}
		if class := cr.status / 100; class >= 1 && class < len(codeClasses) {
			h.requests[class].Inc()
		}
	})
}
