package engine

// Structured request logging and HTTP-level metrics, applied by
// cmd/lpdag-serve around the engine server, the node's one mux (engine
// endpoints and campaign streaming), so every request is accounted
// exactly once.

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultSlowRequest is the latency above which a request is logged at
// Warn level when no threshold is configured.
const DefaultSlowRequest = time.Second

// LogRequests wraps h so that every request emits one structured log
// line (method, route, status, latency, bytes) through logger and, when
// reg is non-nil, feeds the lpdag_http_* series. Requests slower than
// slow (0 = DefaultSlowRequest) log at Warn and count into
// lpdag_http_slow_requests_total. A nil logger disables logging but
// keeps the metrics; a nil registry the reverse.
//
// The route label is the ServeMux pattern that served the request
// ("POST /v1/analyze"), read from r.Pattern after the inner handler
// ran — nested muxes overwrite it with the innermost match, and an
// unmatched request reports "unmatched" so scrape cardinality stays
// bounded by the route table, not by client-chosen paths.
func LogRequests(h http.Handler, logger *slog.Logger, reg *obs.Registry, slow time.Duration) http.Handler {
	if slow <= 0 {
		slow = DefaultSlowRequest
	}
	var slowTotal *obs.Counter
	// Registry lookups take the registry mutex and allocate, so the hot
	// path resolves each (route, code) counter and per-route histogram
	// once and serves every later request from these maps — keeping the
	// package's resolve-once contract and staying off the scrape lock.
	// Keys come from the route table plus the handlers' status codes, so
	// cardinality is bounded.
	var reqTotals, durations sync.Map // "route\x00code" -> *obs.Counter; route -> *obs.Histogram
	if reg != nil {
		slowTotal = reg.Counter("lpdag_http_slow_requests_total",
			"Requests slower than the configured slow-request threshold.")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		elapsed := time.Since(t0)

		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		if reg != nil {
			key := route + "\x00" + strconv.Itoa(rec.status)
			ctr, ok := reqTotals.Load(key)
			if !ok {
				ctr, _ = reqTotals.LoadOrStore(key, reg.Counter("lpdag_http_requests_total",
					"HTTP requests served, by route pattern and status code.",
					"route", route, "code", strconv.Itoa(rec.status)))
			}
			ctr.(*obs.Counter).Inc()
			hist, ok := durations.Load(route)
			if !ok {
				hist, _ = durations.LoadOrStore(route, reg.Histogram("lpdag_http_request_duration_seconds",
					"HTTP request latency by route pattern.",
					obs.LatencyBuckets,
					"route", route))
			}
			hist.(*obs.Histogram).Observe(elapsed.Seconds())
			if elapsed >= slow {
				slowTotal.Inc()
			}
		}
		if logger != nil {
			level := slog.LevelInfo
			if rec.status >= 500 {
				level = slog.LevelError
			} else if elapsed >= slow {
				level = slog.LevelWarn
			}
			logger.LogAttrs(r.Context(), level, "request",
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Duration("latency", elapsed),
				slog.Int64("bytes", rec.bytes),
			)
		}
	})
}

// statusRecorder captures the status code and body size. It implements
// http.Flusher directly (not via interface upgrade) because the
// streaming writer downstream — the tick writer of the campaign
// stream — type-asserts its ResponseWriter to http.Flusher; hiding the
// real writer behind a non-Flusher wrapper would silently turn
// streamed lines into one buffered blob that a client sees only at the
// end.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	bytes       int64
	wroteHeader bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wroteHeader {
		r.status = code
		r.wroteHeader = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wroteHeader = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}
