package engine

// HTTP front end of the engine: a stdlib-only JSON API served by
// cmd/lpdag-serve.
//
//	POST /v1/analyze   batch response-time analysis
//	POST /v1/simulate  discrete-event scheduler simulation
//	POST /v1/generate  random task-set generation (paper populations)
//	GET  /healthz      liveness probe
//	GET  /stats        engine + cache counters
//
// Every POST body is capped at ServerConfig.MaxBodyBytes and the number
// of concurrently served requests at MaxInFlight (excess requests get
// 503, the caller's signal to back off — the engine's slots already
// provide backpressure per job).
//
// Results and errors are JSON, whatever the Accept header asks for.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jsonwire"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ring"
)

// ServerConfig parameterises the HTTP handler.
type ServerConfig struct {
	// MaxBodyBytes caps a request body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxInFlight caps concurrently served requests; 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// MaxBatch caps the task sets in one analyze batch; 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// MaxSessions caps live analysis sessions; 0 means
	// DefaultMaxSessions.
	MaxSessions int
	// SessionTTL evicts sessions untouched for this long; 0 means
	// DefaultSessionTTL, negative disables expiry.
	SessionTTL time.Duration
	// SessionClock overrides the registry's time source (TTL tests).
	SessionClock func() time.Time
	// SessionStore, when non-nil, makes sessions durable: snapshots are
	// fsynced per committed edit batch and the unexpired sessions it
	// recovered are restored into the registry at construction.
	SessionStore *SessionStore
	// SelfURL is this node's advertised base URL (e.g.
	// "http://host:8080") on the session ring; required when Peers is
	// set and implicitly a ring member.
	SelfURL string
	// Peers are the base URLs of every session-plane node. A non-empty
	// list enables consistent-hash session routing: requests for ids
	// another node owns answer 307 + X-Lpdag-Session-Owner unless the
	// session is present locally (restored or handed off here).
	Peers []string
}

// Server limits. The per-job compute caps exist because the HTTP
// boundary is where untrusted sizes arrive: a single tiny request must
// not be able to pin a worker on an effectively unbounded simulation or
// generation (the library-level engine API deliberately stays
// uncapped — embedders control their own inputs).
const (
	DefaultMaxBodyBytes = 8 << 20 // 8 MiB
	DefaultMaxInFlight  = 256
	DefaultMaxBatch     = 1024

	// MaxSimDuration bounds one simulation's horizon; at the paper's
	// time scales this is minutes of wall clock on one worker.
	MaxSimDuration = 100_000_000
	// MaxSimJobs bounds the released jobs of one simulation (applied
	// as the default when the request leaves max_jobs unset).
	MaxSimJobs = 10_000_000
	// MaxGenUtilization and MaxGenTasks bound one generated task set.
	MaxGenUtilization = 1024
	MaxGenTasks       = 4096
	// MaxCores bounds the core count m of every request that names one:
	// analyze (top level and per element), simulate, session creates,
	// set_cores edits and campaign grids. The analysis cost grows
	// superlinearly in m; a 1 KB analyze body with m = 200000000 once
	// ran a node out of memory.
	MaxCores = 64
)

// CheckCores validates a requested core count against [1, MaxCores].
func CheckCores(m int) error {
	if m < 1 || m > MaxCores {
		return fmt.Errorf("invalid cores: %d (must be in [1, %d])", m, MaxCores)
	}
	return nil
}

// Server dispatches HTTP requests onto an Engine. Beyond being the
// http.Handler for the engine endpoints it carries the node's worker
// state for cluster deployments: a draining flag (set by StartDraining
// when SIGTERM drain begins, reported by /healthz so coordinators stop
// scheduling here) and shard-load gauges fed by the /v1/shard handler
// (internal/experiments/cluster).
type Server struct {
	eng       *Engine
	cfg       ServerConfig
	sessions  *SessionRegistry
	inFlight  chan struct{}
	requests  uint64 // HTTP requests admitted (atomic)
	shed      uint64 // requests refused by the in-flight semaphore (atomic)
	writeErrs uint64 // response encode/write failures (atomic)
	start     time.Time

	draining     atomic.Bool
	activeShards atomic.Int64
	shardsServed atomic.Uint64
	mux          *http.ServeMux

	// Session-plane routing (nil ring = single node, no redirects).
	ring      *ring.Ring
	self      string
	redirects *obs.Counter
	handoffs  *obs.Counter

	// analyzePhases time the phases of POST /v1/analyze (nil without a
	// registry): body read and decode with task graphs built, the engine
	// batch, and the response encode and write.
	analyzePhases [3]*obs.Histogram
}

// Phases of POST /v1/analyze, indexing Server.analyzePhases.
const (
	phaseDecode = iota
	phaseAnalyze
	phaseEncode
)

// NewServer returns the engine's HTTP server.
func NewServer(e *Engine, cfg ServerConfig) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	s := &Server{eng: e, cfg: cfg, inFlight: make(chan struct{}, cfg.MaxInFlight), start: time.Now()}
	if len(cfg.Peers) > 0 {
		// SelfURL is implicitly a member: a peer list that omits the
		// node itself would make it own nothing and redirect everything,
		// including its own creates.
		s.self = cfg.SelfURL
		s.ring = ring.New(append(append([]string(nil), cfg.Peers...), cfg.SelfURL), 0)
	}
	s.sessions = NewSessionRegistry(e, SessionRegistryConfig{
		MaxSessions: cfg.MaxSessions, TTL: cfg.SessionTTL, Clock: cfg.SessionClock,
		Store: cfg.SessionStore,
		OwnsID: func(id string) bool {
			return s.ring == nil || s.ring.Owner(id) == s.self
		},
	})
	if cfg.SessionStore != nil {
		s.sessions.RestoreFromStore()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.limited(s.handleAnalyze))
	mux.HandleFunc("POST /v1/simulate", s.limited(s.handleSimulate))
	mux.HandleFunc("POST /v1/generate", s.limited(s.handleGenerate))
	mux.HandleFunc("POST /v1/sessions", s.limited(s.handleSessionCreate))
	mux.HandleFunc("POST /v1/sessions/handoff", s.limited(s.handleSessionHandoff))
	mux.HandleFunc("GET /v1/sessions/{id}/report", s.limited(s.handleSessionReport))
	mux.HandleFunc("POST /v1/sessions/{id}/edits", s.limited(s.handleSessionEdits))
	mux.HandleFunc("POST /v1/sessions/{id}/admit", s.limited(s.handleSessionAdmit))
	mux.HandleFunc("POST /v1/sessions/{id}/sensitivity", s.limited(s.handleSessionSensitivity))
	mux.HandleFunc("POST /v1/sessions/{id}/repair", s.limited(s.handleSessionRepair))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.limited(s.handleSessionDelete))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	if reg := e.obsReg; reg != nil {
		// GET /metrics (Prometheus text format) and the server-level
		// series, on the engine's registry. Unlimited like /healthz and
		// /stats: a scrape must answer while the data plane sheds or
		// drains.
		mux.Handle("GET /metrics", reg.Handler())
		reg.RegisterRuntime(s.start)
		reg.GaugeFunc("lpdag_http_in_flight",
			"Requests currently inside the admission semaphore.",
			func() float64 { return float64(len(s.inFlight)) })
		reg.CounterFunc("lpdag_http_requests_shed_total",
			"Requests refused with 503 by the in-flight semaphore.",
			func() float64 { return float64(atomic.LoadUint64(&s.shed)) })
		reg.CounterFunc("lpdag_http_write_errors_total",
			"Responses lost to encode or mid-body write failures.",
			func() float64 { return float64(atomic.LoadUint64(&s.writeErrs)) })
		reg.GaugeFunc("lpdag_server_draining",
			"1 while SIGTERM drain is in progress, else 0.",
			func() float64 {
				if s.Draining() {
					return 1
				}
				return 0
			})
		reg.GaugeFunc("lpdag_cluster_active_shards",
			"Shard leases currently executing on this worker.",
			func() float64 { return float64(s.activeShards.Load()) })
		reg.CounterFunc("lpdag_cluster_shards_served_total",
			"Shard leases this worker finished (completed or failed).",
			func() float64 { return float64(s.shardsServed.Load()) })
		s.redirects = reg.Counter("lpdag_session_redirects_total",
			"Session requests answered 307 to the owning ring member.")
		s.handoffs = reg.Counter("lpdag_session_handoffs_total",
			"Session snapshots accepted over POST /v1/sessions/handoff.")
		for i, phase := range [...]string{phaseDecode: "decode", phaseAnalyze: "analyze", phaseEncode: "encode"} {
			s.analyzePhases[i] = reg.Histogram("lpdag_http_phase_seconds",
				"Serving time by route and phase: decode (body read, JSON decode, task graphs built), analyze (engine batch), encode (response encode and write).",
				obs.LatencyBuckets, "route", "POST /v1/analyze", "phase", phase)
		}
	}
	s.mux = mux
	return s
}

// Sessions returns the server's session registry (embedders wanting
// programmatic access to the sessions the HTTP surface manages).
func (s *Server) Sessions() *SessionRegistry { return s.sessions }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDraining marks the node as draining: /healthz flips to 503
// "draining" immediately, and the shard endpoint refuses new leases, so
// cluster coordinators stop scheduling here while in-flight requests
// finish. It must be called when SIGTERM drain begins, not when the
// listener closes — a node that keeps reporting healthy through its
// drain window collects work it will never finish.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ShardStarted records a shard lease going active on this worker (load
// reporting for /healthz and /stats).
func (s *Server) ShardStarted() { s.activeShards.Add(1) }

// ShardFinished records a shard lease ending (completed or failed).
func (s *Server) ShardFinished() {
	s.activeShards.Add(-1)
	s.shardsServed.Add(1)
}

// limited wraps a handler with the in-flight semaphore and body cap.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inFlight <- struct{}{}:
			defer func() { <-s.inFlight }()
		default:
			atomic.AddUint64(&s.shed, 1)
			s.writeError(w, http.StatusServiceUnavailable, "server at capacity, retry later")
			return
		}
		atomic.AddUint64(&s.requests, 1)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r)
	}
}

// respBufPool holds the response-encode buffers shared by every
// endpoint: one buffer serves a whole JSON response, so the encode layer
// allocates O(1) per request in steady state.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v (indented, as this API has always rendered JSON)
// into a pooled buffer and writes it in one shot. A failure here has no
// in-band signal left — the status line is already committed — so it is
// counted in lpdag_http_write_errors_total rather than dropped: a
// broken-pipe storm (load balancer timeouts, dying clients) becomes
// diagnosable from /metrics.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := respBufPool.Get().(*bytes.Buffer)
	defer respBufPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.encodeFailed(w, err)
		return
	}
	s.writeBody(w, status, "application/json", buf.Bytes())
}

// writeAppended sends the JSON body that appendBody appends to a pooled
// buffer, or encodeFailed's 500 when appendBody fails.
func (s *Server) writeAppended(w http.ResponseWriter, status int, appendBody func([]byte) ([]byte, error)) {
	buf := respBufPool.Get().(*bytes.Buffer)
	defer respBufPool.Put(buf)
	buf.Reset()
	out, err := appendBody(buf.AvailableBuffer())
	if err != nil {
		s.encodeFailed(w, err)
		return
	}
	buf.Write(out)
	s.writeBody(w, status, "application/json", buf.Bytes())
}

// encodeFailed answers a response that could not be encoded. Encoding
// fails before any byte reaches the wire, so a clean error status is
// still possible (and still counts: the caller lost a response either
// way).
func (s *Server) encodeFailed(w http.ResponseWriter, err error) {
	atomic.AddUint64(&s.writeErrs, 1)
	http.Error(w, fmt.Sprintf("response encoding failed: %v", err), http.StatusInternalServerError)
}

// writeBody sends one fully encoded response body, counting write
// failures in lpdag_http_write_errors_total.
func (s *Server) writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		atomic.AddUint64(&s.writeErrs, 1)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decode parses the body into v, mapping oversized bodies to 413 and
// malformed JSON to 400. It reports whether decoding succeeded.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.rejectBody(w, err)
		return false
	}
	return true
}

// readBody reads the whole body into a pooled buffer, which the caller
// puts back into respBufPool once nothing refers to its bytes. It
// reports false after answering a failed read.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // room for ReadFrom's final EOF read
	}
	if _, err := buf.ReadFrom(r.Body); err != nil {
		respBufPool.Put(buf)
		s.rejectBody(w, err)
		return nil, false
	}
	return buf, true
}

// rejectBody answers a body that could not be read or decoded: 413 when
// it exceeds MaxBodyBytes, else 400.
func (s *Server) rejectBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	s.writeError(w, http.StatusBadRequest, "invalid request: %v", err)
}

// ParseMethod maps the API wire spelling to a core.Method ("" =
// LP-ILP). Shared by every HTTP surface speaking the /v1/ dialect
// (including the campaign endpoint in internal/experiments).
func ParseMethod(s string) (core.Method, error) {
	switch s {
	case "", "lp-ilp":
		return core.LPILP, nil
	case "lp-max":
		return core.LPMax, nil
	case "fp-ideal":
		return core.FPIdeal, nil
	}
	return 0, fmt.Errorf("unknown method %q (want fp-ideal | lp-ilp | lp-max)", s)
}

// MethodWire renders a core.Method in the wire spelling ParseMethod
// accepts (Method.String uses the paper's display capitalisation, which
// the API does not).
func MethodWire(m core.Method) (string, error) {
	switch m {
	case core.LPILP:
		return "lp-ilp", nil
	case core.LPMax:
		return "lp-max", nil
	case core.FPIdeal:
		return "fp-ideal", nil
	}
	return "", fmt.Errorf("engine: method %v has no wire spelling", m)
}

// analyzeItem is one batch element: a task set plus optional per-request
// overrides of the top-level defaults. Its wire form is {"taskset",
// "cores", "method", "final_npr"}; the set is decoded while the body is
// read, and a set that fails to decode fails only its own element.
type analyzeItem struct {
	hasSet   bool
	set      *model.TaskSet
	setErr   error
	cores    *int
	method   *string
	finalNPR *bool
}

// analyzeRequest is the /v1/analyze body, {"cores", "method", "final_npr",
// "requests"}: defaults plus a batch.
type analyzeRequest struct {
	cores    int    // default 4
	method   string // default "lp-ilp"
	finalNPR bool   // Options.FinalNPRRefinement
	batch    int    // elements in "requests"
	items    []analyzeItem
}

// decodeAnalyzeRequest reads a /v1/analyze body in one pass, task sets
// included (model.DecodeTaskSet on the same cursor). It accepts the
// bodies json.Decoder with DisallowUnknownFields accepted into the
// former struct form of the envelope, field values and repeated-key
// semantics alike, except that data after the JSON value is now an
// error. Elements past maxBatch are only validated, not built, since
// the request fails on its size.
func decodeAnalyzeRequest(body []byte, maxBatch int) (*analyzeRequest, error) {
	d := jsonwire.NewDec(body)
	req := new(analyzeRequest)
	var first error // the first type or unknown-field error, as json.Decoder keeps it
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	switch d.Peek() {
	case jsonwire.Null:
		d.Skip()
	case jsonwire.Object:
		d.Object(func(key []byte) {
			switch {
			case jsonwire.KeyIs(key, "cores"):
				keep(d.Int(&req.cores, "cores"))
			case jsonwire.KeyIs(key, "method"):
				keep(d.Str(&req.method, "method"))
			case jsonwire.KeyIs(key, "final_npr"):
				keep(d.Bool(&req.finalNPR, "final_npr"))
			case jsonwire.KeyIs(key, "requests"):
				keep(req.decodeItems(d, maxBatch, first != nil))
			default:
				keep(fmt.Errorf("json: unknown field %q", key))
				d.Skip()
			}
		})
	default:
		keep(d.Mismatch("analyze request", "object"))
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return req, first
}

// decodeItems reads "requests" as encoding/json fills a slice: a
// repeated key decodes into the elements already there. With failed set
// the request is already lost, so sets are validated, not built.
func (req *analyzeRequest) decodeItems(d *jsonwire.Dec, maxBatch int, failed bool) error {
	switch d.Peek() {
	case jsonwire.Null:
		d.Skip()
		req.items, req.batch = nil, 0
		return nil
	case jsonwire.Array:
	default:
		return d.Mismatch("requests", "array")
	}
	var first error
	n := 0
	d.Array(func(i int) {
		n = i + 1
		if i >= maxBatch {
			d.Skip()
			return
		}
		if i == len(req.items) {
			if i < cap(req.items) {
				req.items = req.items[:i+1]
			} else {
				req.items = append(req.items, analyzeItem{})
			}
		}
		if err := req.items[i].decode(d, failed || first != nil); first == nil {
			first = err
		}
	})
	req.items = req.items[:min(n, len(req.items))]
	if n == 0 {
		req.items = nil
	}
	req.batch = n
	return first
}

// decode reads one batch element into it; null leaves it unchanged. With
// skipSet the set is validated and marked present but not built.
func (it *analyzeItem) decode(d *jsonwire.Dec, skipSet bool) error {
	switch d.Peek() {
	case jsonwire.Null:
		d.Skip()
		return nil
	case jsonwire.Object:
	default:
		return d.Mismatch("requests element", "object")
	}
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	d.Object(func(key []byte) {
		switch {
		case jsonwire.KeyIs(key, "taskset"):
			it.hasSet = true
			if skipSet || first != nil {
				d.Skip()
				return
			}
			it.set, it.setErr = model.DecodeTaskSet(d)
		case jsonwire.KeyIs(key, "cores"):
			keep(readOverride(d, &it.cores, d.Int, "cores"))
		case jsonwire.KeyIs(key, "method"):
			keep(readOverride(d, &it.method, d.Str, "method"))
		case jsonwire.KeyIs(key, "final_npr"):
			keep(readOverride(d, &it.finalNPR, d.Bool, "final_npr"))
		default:
			keep(fmt.Errorf("json: unknown field %q", key))
			d.Skip()
		}
	})
	return first
}

// readOverride reads a per-element override: null clears it, a value
// sets it.
func readOverride[T any](d *jsonwire.Dec, dst **T, read func(*T, string) error, field string) error {
	if d.Peek() == jsonwire.Null {
		d.Skip()
		*dst = nil
		return nil
	}
	v := new(T)
	*dst = v
	return read(v, field)
}

// appendAnalyzeResponseJSON appends the /v1/analyze JSON body,
// {"results": […]}, for results reps, where a nil report stands for a
// failed element whose error string is in fails: byte for byte what
// writeJSON (a json.Encoder indenting by two spaces) writes for it,
// without reflection.
func appendAnalyzeResponseJSON(buf []byte, reps []*core.Report, fails []string) ([]byte, error) {
	if len(reps) == 0 {
		return append(buf, "{\n  \"results\": []\n}\n"...), nil // handleAnalyze never sends nil
	}
	buf = append(buf, "{\n  \"results\": ["...)
	for i, rep := range reps {
		var err error
		if buf, err = appendResultJSON(appendNext(buf, indent(2), ""), rep, fails[i], 2); err != nil {
			return buf, err
		}
	}
	return append(buf, "\n  ]\n}\n"...), nil
}

// indentLine holds a line break and json.Encoder's two-space indent,
// deep enough for a task field of a result at depth 2.
const indentLine = "\n          "

// indent returns the line break and indentation of depth d.
func indent(d int) string { return indentLine[:1+2*d] }

// appendNext starts the next member of an indented JSON object or
// element of an array: the comma after the previous one (none at the
// start of buf or right after the opening bracket), the line break and
// indentation ind, and then s, a member's quoted name with its ": " or
// an element's opening bracket.
func appendNext(buf []byte, ind, s string) []byte {
	if n := len(buf); n > 0 && buf[n-1] != '{' && buf[n-1] != '[' {
		buf = append(buf, ',')
	}
	return append(append(buf, ind...), s...)
}

// appendResultJSON appends one result as a json.Encoder indenting by
// two spaces writes it when the object opens at the given depth:
// /v1/analyze results sit at depth 2, the report of a session response
// at depth 1. A result is rep's members or, when rep is nil, a failed
// /v1/analyze element: its error string (omitted when empty) and
// "schedulable": false. Its one error is encoding/json's: a non-finite
// utilization.
func appendResultJSON(buf []byte, rep *core.Report, fail string, depth int) ([]byte, error) {
	res, task, field := indent(depth+1), indent(depth+2), indent(depth+3)
	buf = append(buf, '{')
	if rep == nil {
		if fail != "" {
			buf = jsonwire.AppendString(appendNext(buf, res, `"error": `), fail)
		}
		buf = append(appendNext(buf, res, `"schedulable": `), "false"...)
		return append(append(buf, indent(depth)...), '}'), nil
	}
	buf = strconv.AppendBool(appendNext(buf, res, `"schedulable": `), rep.Schedulable)
	buf = jsonwire.AppendString(appendNext(buf, res, `"method": `), rep.Method.String())
	if rep.Cores != 0 {
		buf = strconv.AppendInt(appendNext(buf, res, `"cores": `), int64(rep.Cores), 10)
	}
	if rep.Utilization != 0 {
		var err error
		if buf, err = jsonwire.AppendFloat(appendNext(buf, res, `"utilization": `), rep.Utilization); err != nil {
			return buf, err
		}
	}
	if len(rep.Tasks) > 0 {
		buf = appendNext(buf, res, `"tasks": [`)
		for _, t := range rep.Tasks {
			buf = appendNext(buf, task, "{")
			buf = jsonwire.AppendString(appendNext(buf, field, `"name": `), t.Name)
			buf = strconv.AppendBool(appendNext(buf, field, `"schedulable": `), t.Schedulable)
			buf = strconv.AppendBool(appendNext(buf, field, `"analyzed": `), t.Analyzed)
			buf = strconv.AppendInt(appendNext(buf, field, `"response_time": `), t.ResponseTime, 10)
			buf = strconv.AppendInt(appendNext(buf, field, `"deadline": `), t.Deadline, 10)
			buf = strconv.AppendInt(appendNext(buf, field, `"delta_m": `), t.DeltaM, 10)
			buf = strconv.AppendInt(appendNext(buf, field, `"delta_m1": `), t.DeltaM1, 10)
			buf = strconv.AppendInt(appendNext(buf, field, `"preemptions": `), t.Preemptions, 10)
			buf = strconv.AppendInt(appendNext(buf, field, `"iterations": `), int64(t.Iterations), 10)
			buf = append(append(buf, task...), '}')
		}
		buf = append(append(buf, res...), ']')
	}
	return append(append(buf, indent(depth)...), '}'), nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeAnalyzeRequest(body.Bytes(), s.cfg.MaxBatch)
	respBufPool.Put(body) // the decoded request holds no reference into it
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	if req.batch == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch: requests must hold at least one task set")
		return
	}
	if req.batch > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", req.batch, s.cfg.MaxBatch)
		return
	}
	if req.cores == 0 {
		req.cores = 4
	}
	if err := CheckCores(req.cores); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	reps := make([]*core.Report, len(req.items))
	fails := make([]string, len(req.items)) // error of each element without a report
	sets := make([]*model.TaskSet, 0, len(req.items))
	specs := make([]AnalyzeSpec, 0, len(req.items))
	slots := make([]int, 0, len(req.items)) // result index per submitted job
	for i := range req.items {
		item := &req.items[i]
		spec := AnalyzeSpec{Cores: req.cores, FinalNPR: req.finalNPR}
		methodStr := req.method
		if item.cores != nil {
			spec.Cores = *item.cores
		}
		if item.finalNPR != nil {
			spec.FinalNPR = *item.finalNPR
		}
		if item.method != nil {
			methodStr = *item.method
		}
		if err := CheckCores(spec.Cores); err != nil {
			fails[i] = err.Error()
			continue
		}
		var err error
		if spec.Method, err = ParseMethod(methodStr); err != nil {
			fails[i] = err.Error()
			continue
		}
		if !item.hasSet {
			fails[i] = "missing taskset"
			continue
		}
		if item.setErr != nil {
			fails[i] = item.setErr.Error()
			continue
		}
		sets = append(sets, item.set)
		specs = append(specs, spec)
		slots = append(slots, i)
	}

	t1 := time.Now()
	s.analyzePhases[phaseDecode].Observe(t1.Sub(t0).Seconds())
	reports, errs, err := s.eng.AnalyzeBatch(r.Context(), sets, specs)
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, "batch aborted: %v", err)
		return
	}
	t2 := time.Now()
	s.analyzePhases[phaseAnalyze].Observe(t2.Sub(t1).Seconds())
	defer s.analyzePhases[phaseEncode].Since(t2)
	for j, slot := range slots {
		if errs[j] != nil {
			fails[slot] = errs[j].Error()
			continue
		}
		reps[slot] = reports[j]
	}
	s.writeAppended(w, http.StatusOK, func(buf []byte) ([]byte, error) {
		return appendAnalyzeResponseJSON(buf, reps, fails)
	})
}

// simulateRequest is the /v1/simulate body.
type simulateRequest struct {
	TaskSet  json.RawMessage `json:"taskset"`
	Cores    int             `json:"cores,omitempty"`    // default 4
	Duration int64           `json:"duration,omitempty"` // default 10000
	MaxJobs  int             `json:"max_jobs,omitempty"`
}

// simulateResponse summarises a run.
type simulateResponse struct {
	Jobs        int     `json:"jobs"`
	Misses      int     `json:"misses"`
	MaxResponse []int64 `json:"max_response"`
	Horizon     int64   `json:"horizon"`
	CoreBusy    []int64 `json:"core_busy"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.TaskSet) == 0 {
		s.writeError(w, http.StatusBadRequest, "missing taskset")
		return
	}
	ts := new(model.TaskSet)
	if err := ts.UnmarshalJSON(req.TaskSet); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid taskset: %v", err)
		return
	}
	if req.Cores == 0 {
		req.Cores = 4
	}
	if err := CheckCores(req.Cores); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Duration == 0 {
		req.Duration = 10000
	}
	if req.Duration > MaxSimDuration {
		s.writeError(w, http.StatusBadRequest, "duration %d exceeds limit %d", req.Duration, MaxSimDuration)
		return
	}
	if req.MaxJobs <= 0 || req.MaxJobs > MaxSimJobs {
		req.MaxJobs = MaxSimJobs
	}
	res, err := s.eng.Simulate(r.Context(), ts, SimulateSpec{
		Cores: req.Cores, Duration: req.Duration, MaxJobs: req.MaxJobs,
	})
	if err != nil {
		s.writeError(w, statusForJobError(err), "simulate: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, simulateResponse{
		Jobs:        len(res.Jobs),
		Misses:      res.Misses,
		MaxResponse: res.MaxResponse,
		Horizon:     res.Horizon,
		CoreBusy:    res.CoreBusy,
	})
}

// generateRequest is the /v1/generate body.
type generateRequest struct {
	Seed        int64   `json:"seed"`
	Group       string  `json:"group,omitempty"` // "mixed" (default) | "parallel"
	Utilization float64 `json:"utilization,omitempty"`
	Tasks       int     `json:"tasks,omitempty"`
	SeqProb     float64 `json:"seqprob,omitempty"`
	Count       int     `json:"count,omitempty"` // task sets to produce, default 1
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if !s.decode(w, r, &req) {
		return
	}
	var group gen.Group
	switch req.Group {
	case "", "mixed":
		group = gen.GroupMixed
	case "parallel":
		group = gen.GroupParallel
	default:
		s.writeError(w, http.StatusBadRequest, "unknown group %q (want mixed | parallel)", req.Group)
		return
	}
	if req.Utilization <= 0 {
		req.Utilization = 2
	}
	if req.Utilization > MaxGenUtilization {
		s.writeError(w, http.StatusBadRequest, "utilization %g exceeds limit %d", req.Utilization, MaxGenUtilization)
		return
	}
	if req.Tasks > MaxGenTasks {
		s.writeError(w, http.StatusBadRequest, "tasks %d exceeds limit %d", req.Tasks, MaxGenTasks)
		return
	}
	if req.Count <= 0 {
		req.Count = 1
	}
	if req.Count > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest, "count %d exceeds limit %d", req.Count, s.cfg.MaxBatch)
		return
	}
	// Fan the generations out over the engine's slots (each is
	// deterministic in its own derived seed, so order is preserved by
	// index, not by completion).
	sets := make([]json.RawMessage, req.Count)
	errs := make([]error, req.Count)
	fanErr := s.eng.FanOut(r.Context(), req.Count, func(i int) {
		ts, err := s.eng.Generate(r.Context(), GenerateSpec{
			Seed: req.Seed + int64(i), Group: group,
			Utilization: req.Utilization, Tasks: req.Tasks, SeqProb: req.SeqProb,
		})
		if err != nil {
			errs[i] = err
			return
		}
		sets[i], errs[i] = ts.MarshalJSON()
	}, nil)
	// The indices FanOut never handed out failed with its error.
	for _, err := range append(errs, fanErr) {
		if err != nil {
			s.writeError(w, statusForJobError(err), "generate: %v", err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"tasksets": sets})
}

// healthzResponse is the /healthz body. Status is "ok" while serving
// and "draining" once SIGTERM drain has begun (with HTTP 503, so load
// balancers and cluster coordinators stop routing work here); the load
// fields let a coordinator prefer idle workers.
type healthzResponse struct {
	Status       string `json:"status"`
	Workers      int    `json:"workers"`
	QueueDepth   int    `json:"queue_depth"`
	ActiveShards int64  `json:"active_shards"`
	// Node-identity fields (additive, PR 6): dashboards and coordinators
	// need to tell nodes and builds apart from the probe alone.
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ActiveSessions (additive, PR 9): live session count, so a drain
	// supervisor can see hand-off progress from the probe alone.
	ActiveSessions int `json:"active_sessions"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	resp := healthzResponse{
		Status:         "ok",
		Workers:        st.Workers,
		QueueDepth:     st.QueueDepth,
		ActiveShards:   s.activeShards.Load(),
		Version:        obs.Version(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		ActiveSessions: s.sessions.Len(),
	}
	if s.Draining() {
		resp.Status = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// statsResponse augments the engine stats with server-level counters.
type statsResponse struct {
	Stats
	HTTPRequests   uint64  `json:"http_requests"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	ActiveShards   int64   `json:"active_shards"`
	ShardsServed   uint64  `json:"shards_served"`
	ActiveSessions int     `json:"active_sessions"`
	Draining       bool    `json:"draining"`
	// Node-identity and runtime fields (additive, PR 6; existing keys
	// above keep their names and order, so pre-PR-6 consumers parse
	// unchanged).
	Version        string  `json:"version"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Goroutines     int     `json:"goroutines"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.writeJSON(w, http.StatusOK, statsResponse{
		Stats:          st,
		HTTPRequests:   atomic.LoadUint64(&s.requests),
		CacheHitRate:   st.Cache.HitRate(),
		ActiveShards:   s.activeShards.Load(),
		ShardsServed:   s.shardsServed.Load(),
		ActiveSessions: s.sessions.Len(),
		Draining:       s.Draining(),
		Version:        obs.Version(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Goroutines:     runtime.NumGoroutine(),
		HeapInuseBytes: ms.HeapInuse,
	})
}

// statusForJobError maps engine-level submission failures to HTTP codes.
func statusForJobError(err error) int {
	if errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
