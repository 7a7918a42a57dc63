package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/topo"
)

// Defaults applied by NewServer when the corresponding Config field is zero.
const (
	DefaultRequestTimeout = 10 * time.Second
	DefaultAnalyzeTimeout = 5 * time.Second
	DefaultMaxInFlight    = 64
	DefaultMaxBodyBytes   = 1 << 20 // 1 MiB
	DefaultCacheSize      = 256
)

// Config parameterizes a Server.
type Config struct {
	// Registry holds the tenant networks the server routes
	// /v2/networks/{netid}/... requests to. When nil, the server builds a
	// single-network registry from State and Cache under DefaultNetworkID.
	Registry *Registry
	// State holds the live admission fabric of the default network.
	// Required when Registry is nil; must be unset otherwise.
	State *State
	// Cache holds the default network's analyze results;
	// NewCache(DefaultCacheSize) when nil. Only read when Registry is nil.
	Cache *Cache
	// Logger receives structured request logs; a no-op logger when nil.
	Logger *slog.Logger
	// RequestTimeout bounds each request's context — the HARD deadline:
	// once it passes, the request is shed with a 503 envelope and a
	// Retry-After header, and its in-flight analysis is cancelled.
	RequestTimeout time.Duration
	// AnalyzeTimeout is the SOFT analysis budget: when the requested
	// analyzer exceeds it, the request degrades to the always-sound
	// decomposed bound, labeled degraded:true with the bound source.
	// Zero applies DefaultAnalyzeTimeout; negative disables degradation
	// (the analyzer runs until the hard deadline). Overridable
	// per-request via timeout_seconds.
	AnalyzeTimeout time.Duration
	// MaxInFlight bounds the number of concurrently running analyses
	// across the analyze and admit endpoints of EVERY network; excess
	// requests queue until a slot frees or their hard deadline sheds them.
	// Zero applies DefaultMaxInFlight; negative disables the bound.
	MaxInFlight int
	// MaxBodyBytes bounds request body sizes; oversized bodies get 413.
	MaxBodyBytes int64
}

// Server is the delayd HTTP API: admission control over one or more
// tenant fabrics plus stateless analysis with caching, instrumented with
// per-network Metrics. Every endpoint is network-scoped under
// /v2/networks/{netid}/ (healthz and the networks listing are global under
// /v2). The spellings from before the API settled on /v2 answer 410 gone
// with a successor-version Link to their /v2 replacement.
type Server struct {
	reg        *Registry
	log        *slog.Logger
	timeout    time.Duration
	softBudget time.Duration // <= 0: degradation disabled
	sem        chan struct{} // analysis slots; nil: unbounded
	pick       func(string) (analysis.Analyzer, error)
	maxBody    int64
	mux        *http.ServeMux
}

// netHandler is an endpoint handler bound to one resolved tenant network.
type netHandler func(nw *Network, w http.ResponseWriter, r *http.Request)

// Canonical endpoint labels. Metrics are per-network instances, so the
// label keeps the {netid} placeholder literal: cardinality stays
// independent of the number of tenants.
const (
	epAdmit   = "POST /v2/networks/{netid}/connections"
	epBatch   = "POST /v2/networks/{netid}/batch"
	epAnalyze = "POST /v2/networks/{netid}/analyze"
	// epRemoved labels every request to a removed spelling, so clients
	// still calling one show up as delayd_requests_total{code="410"}.
	epRemoved = "removed"
)

// route is one row of the Server's registration table. Paths containing
// {netid} are network-scoped; the rest are global and see the default
// network.
type route struct {
	method  string
	path    string
	handler netHandler
}

// routes is the single registration table for every endpoint.
func (s *Server) routes() []route {
	const nw = "/v2/networks/{netid}"
	return []route{
		{"POST", nw + "/connections", s.handleAdmit},
		{"GET", nw + "/connections", s.handleList},
		{"DELETE", nw + "/connections/{name}", s.handleRemove},
		{"POST", nw + "/batch", s.handleBatch},
		{"GET", nw + "/stats", s.handleStats},
		{"POST", nw + "/analyze", s.handleAnalyze},
		{"GET", nw + "/metrics", s.handleMetrics},
		{"GET", "/v2/healthz", s.handleHealthz},
		{"GET", "/v2/networks", s.handleNetworks},
	}
}

// removedSpellings maps each /v2 successor to the spellings it replaced:
// the /v1 routes, their /v1-era aliases, and the unprefixed routes from
// before the API was versioned. Successors without a /v2 prefix are
// suffixes under the default network.
var removedSpellings = map[string][]string{
	"/connections":        {"/v1/connections", "/v1/admit", "/connections", "/admit"},
	"/connections/{name}": {"/v1/connections/{name}", "/connections/{name}"},
	"/batch":              {"/v1/batch", "/v1/admit/batch"},
	"/stats":              {"/v1/stats"},
	"/analyze":            {"/v1/analyze", "/analyze"},
	"/metrics":            {"/v1/metrics", "/metrics"},
	"/v2/healthz":         {"/v1/healthz", "/healthz"},
}

// NewServer assembles the API around a network registry (or, for the
// single-tenant configuration, a bare admission state).
func NewServer(cfg Config) (*Server, error) {
	s := &Server{
		reg:        cfg.Registry,
		log:        cfg.Logger,
		timeout:    cfg.RequestTimeout,
		softBudget: cfg.AnalyzeTimeout,
		pick:       PickAnalyzer,
		maxBody:    cfg.MaxBodyBytes,
	}
	if s.reg == nil {
		if cfg.State == nil {
			return nil, fmt.Errorf("service: Config.State is required when no Registry is given")
		}
		s.reg = NewRegistry()
		if _, err := s.reg.Add(DefaultNetworkID, cfg.State, cfg.Cache); err != nil {
			return nil, err
		}
	} else {
		if cfg.State != nil || cfg.Cache != nil {
			return nil, fmt.Errorf("service: set either Config.Registry or Config.State/Cache, not both")
		}
		if s.reg.Len() == 0 {
			return nil, fmt.Errorf("service: Config.Registry has no networks")
		}
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if s.timeout <= 0 {
		s.timeout = DefaultRequestTimeout
	}
	if s.softBudget == 0 {
		s.softBudget = DefaultAnalyzeTimeout
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	if maxInFlight > 0 {
		s.sem = make(chan struct{}, maxInFlight)
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}

	s.mux = http.NewServeMux()
	// allow collects each path's method set: the input of the uniform 405
	// handlers registered below.
	allow := make(map[string][]string)
	for _, rt := range s.routes() {
		h := s.onDefault(rt.handler)
		if strings.Contains(rt.path, "{netid}") {
			h = s.scoped(rt.handler)
		}
		s.mux.HandleFunc(rt.method+" "+rt.path, s.instrument(rt.method+" "+rt.path, h))
		allow[rt.path] = append(allow[rt.path], rt.method)
	}
	// Every known path answers unsupported methods with the same 405
	// envelope and an Allow header, instead of the mux's plain-text default.
	for path, methods := range allow {
		sort.Strings(methods)
		s.mux.HandleFunc(path, methodNotAllowed(methods))
	}
	// Removed spellings answer 410 for every method, naming their successor.
	for successor, paths := range removedSpellings {
		if !strings.HasPrefix(successor, "/v2/") {
			successor = "/v2/networks/" + s.reg.DefaultID() + successor
		}
		for _, p := range paths {
			s.mux.HandleFunc(p, s.instrument(epRemoved, gone(successor)))
		}
	}
	// Unknown paths answer the JSON 404 envelope.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})
	return s, nil
}

// scoped resolves {netid} against the registry before invoking the
// handler; unknown ids answer the 404 envelope with a stable code.
func (s *Server) scoped(h netHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("netid")
		nw, ok := s.reg.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, CodeUnknownNetwork,
				fmt.Sprintf("no network named %q", id))
			return
		}
		h(nw, w, r)
	}
}

// onDefault binds a global route's handler to the default network.
func (s *Server) onDefault(h netHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(s.reg.Default(), w, r)
	}
}

// methodNotAllowed writes the uniform 405 envelope with an Allow header;
// registered as the method-less pattern of every known path so the mux's
// plain-text fallback never reaches clients.
func methodNotAllowed(methods []string) http.HandlerFunc {
	allow := strings.Join(methods, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, allow))
	}
}

// gone answers a removed spelling with the 410 envelope and a
// successor-version link to its /v2 replacement, with the request's
// {name} filled in.
func gone(successor string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		to := successor
		if name := r.PathValue("name"); name != "" {
			to = strings.Replace(to, "{name}", url.PathEscape(name), 1)
		}
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=%q", to, "successor-version"))
		writeError(w, http.StatusGone, CodeGone,
			fmt.Sprintf("%s was removed; use %s", r.URL.Path, to))
	}
}

// ServeHTTP dispatches to the instrumented mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the tenant networks.
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the default network's accumulator (used by tests).
func (s *Server) Metrics() *Metrics { return s.reg.Default().metrics }

// Cache exposes the default network's analyze cache (used by tests and
// benchmarks).
func (s *Server) Cache() *Cache { return s.reg.Default().cache }

// State exposes the default network's admission state.
func (s *Server) State() *State { return s.reg.Default().state }

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// metricsFor resolves the Metrics instance a request charges to: the
// addressed network's when the path carries a known {netid}, the default
// network's otherwise (global routes, removed spellings, unknown ids).
func (s *Server) metricsFor(r *http.Request) *Metrics {
	if id := r.PathValue("netid"); id != "" {
		if nw, ok := s.reg.Get(id); ok {
			return nw.metrics
		}
	}
	return s.reg.Default().metrics
}

// instrument wraps a handler with the request-scoped plumbing shared by
// every endpoint: body size limiting, a context deadline, in-flight and
// latency metrics under a stable endpoint label on the addressed
// network's accumulator, panic recovery, and a structured access log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m := s.metricsFor(r)
		m.RequestStarted()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(rec, r.Body, s.maxBody)
		}
		defer func() {
			if p := recover(); p != nil {
				s.log.Error("panic", "endpoint", endpoint, "panic", p,
					"stack", string(debug.Stack()))
				if rec.status == http.StatusOK {
					writeError(rec, http.StatusInternalServerError, CodeInternal, "internal error")
				}
			}
			elapsed := time.Since(start)
			m.RequestFinished(endpoint, rec.status, elapsed.Seconds())
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"remote", r.RemoteAddr,
			)
		}()
		h(rec, r)
	}
}

// Stable machine-readable error codes carried by every non-2xx reply's
// envelope. The admission codes are shared with package admission so a
// Decision's code and the envelope's code can never drift apart.
const (
	CodeInvalidSpec      = admission.CodeInvalidSpec
	CodeDeadlineMissed   = admission.CodeDeadlineMissed
	CodeUnstable         = admission.CodeUnstable
	CodeUnknownAnalyzer  = "unknown_analyzer"
	CodeUnknownNetwork   = "unknown_network"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeTimeout          = "timeout"
	CodeNotFound         = "not_found"
	CodeBodyTooLarge     = "body_too_large"
	CodeStaleCursor      = "stale_cursor"
	CodeGone             = "gone"
	CodeInternal         = "internal"
)

// SnapshotVersionHeader carries the replica-read snapshot version on GET
// responses: the version of the immutable promoted snapshot view the
// response was served from, monotone under every commit on the network.
const SnapshotVersionHeader = "X-Snapshot-Version"

func setSnapshotVersion(w http.ResponseWriter, version uint64) {
	w.Header().Set(SnapshotVersionHeader, strconv.FormatUint(version, 10))
}

// ErrorDetail is the payload of the error envelope: a stable
// machine-readable code plus a human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorResponse is the JSON envelope of every non-2xx reply:
//
//	{"error": {"code": "...", "message": "..."}}
type errorResponse struct {
	Error ErrorDetail `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

// decodeBody decodes a JSON request body strictly, mapping the failure
// modes to the right status: 413 for an oversized body, 400 otherwise.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "invalid JSON: "+err.Error())
		return false
	}
	// Reject trailing garbage after the document.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "invalid JSON: trailing data after document")
		return false
	}
	return true
}

// fallbackAnalyzer is the degradation target: the decomposed (Cruz)
// analysis is always valid — its bound dominates the integrated bound on
// every network — and cheap, so falling back to it under time pressure
// trades tightness for latency without ever returning an unsound bound.
var fallbackAnalyzer = analysis.Decomposed{}

// degradable reports whether an analyzer has a cheaper sound fallback
// (everything except the fallback itself).
func degradable(a analysis.Analyzer) bool {
	_, isDecomposed := a.(analysis.Decomposed)
	return !isDecomposed
}

// shed rejects a request whose hard deadline passed (or that could not get
// an analysis slot in time) with the 503 envelope and a Retry-After hint.
func (s *Server) shed(nw *Network, w http.ResponseWriter, msg string) {
	nw.metrics.RequestShed()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, CodeTimeout, msg)
}

// acquireSlot takes one bounded-concurrency analysis slot, queueing (and
// exporting the queue depth on the network's metrics) until one frees or
// the request's hard deadline sheds it. Reports false when the context
// won. The slot pool is shared across networks — it bounds the process's
// concurrent analyses — but the queue gauge is per-network.
func (s *Server) acquireSlot(ctx context.Context, nw *Network) bool {
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	nw.metrics.QueueEntered()
	defer nw.metrics.QueueLeft()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// releaseSlot returns an analysis slot.
func (s *Server) releaseSlot() {
	if s.sem != nil {
		<-s.sem
	}
}

// softContext derives the soft-budget context for one analysis: the
// per-request override (seconds) when positive, the server default
// otherwise. ok is false when degradation is disabled (negative budget),
// in which case ctx is returned unchanged.
func (s *Server) softContext(ctx context.Context, override float64) (sctx context.Context, cancel context.CancelFunc, ok bool) {
	budget := s.softBudget
	if override > 0 {
		budget = time.Duration(override * float64(time.Second))
	}
	if budget <= 0 {
		return ctx, func() {}, false
	}
	sctx, cancel = context.WithTimeout(ctx, budget)
	return sctx, cancel, true
}

// observeStages exports an analysis run's per-stage wall time to the
// network's metrics histograms and the debug log.
func (s *Server) observeStages(nw *Network, endpoint string, tm *analysis.Timings) {
	stages := tm.StageSeconds()
	for st, sec := range stages {
		nw.metrics.ObserveStage(st, sec)
	}
	s.log.Debug("analysis stages",
		"endpoint", endpoint,
		"network", nw.id,
		"partition_s", stages["partition"],
		"aggregate_s", stages["aggregate"],
		"theta_s", stages["theta"],
		"propagate_s", stages["propagate"],
	)
}

// runAnalysis executes one stateless analysis under the degradation
// policy: the requested analyzer runs under the soft budget; if the budget
// expires while the hard deadline is still alive, the always-sound
// decomposed fallback runs in its place and degraded is reported true. An
// error for which admission.IsCanceled holds means the hard deadline
// passed and the request must be shed.
func (s *Server) runAnalysis(ctx context.Context, nw *Network, endpoint string, analyzer analysis.Analyzer, net *topo.Network, override float64) (res *analysis.Result, degraded bool, err error) {
	tctx, tm := analysis.WithTimings(ctx)
	defer s.observeStages(nw, endpoint, tm)
	sctx, cancel, hasSoft := s.softContext(tctx, override)
	if !hasSoft || !degradable(analyzer) {
		cancel()
		res, err = analysis.AnalyzeWithContext(tctx, analyzer, net)
		return res, false, err
	}
	res, err = analysis.AnalyzeWithContext(sctx, analyzer, net)
	cancel()
	if err == nil {
		return res, false, nil
	}
	if !admission.IsCanceled(err) || ctx.Err() != nil {
		// A real analyzer error, or the hard deadline itself: no fallback.
		return nil, false, err
	}
	nw.metrics.DegradedServed()
	s.log.Warn("analysis degraded to decomposed bound",
		"endpoint", endpoint, "network", nw.id, "analyzer", analyzer.Name())
	res, err = analysis.AnalyzeWithContext(tctx, fallbackAnalyzer, net)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// runAdmission executes one admission test/commit under the same
// degradation policy as runAnalysis. Degrading an admission is sound in
// the conservative direction: the decomposed bound dominates the
// integrated bound, so a degraded decision may reject a candidate the
// integrated analysis would have admitted but never the reverse.
func (s *Server) runAdmission(ctx context.Context, nw *Network, endpoint string, dryRun bool, cand topo.Connection, override float64) (d admission.Decision, degraded bool, err error) {
	tctx, tm := analysis.WithTimings(ctx)
	defer s.observeStages(nw, endpoint, tm)
	run := func(runCtx context.Context) (admission.Decision, error) {
		if dryRun {
			return nw.state.TestContext(runCtx, cand)
		}
		return nw.state.AdmitContext(runCtx, cand)
	}
	sctx, cancel, hasSoft := s.softContext(tctx, override)
	if !hasSoft || !degradable(nw.state.Engine().Analyzer()) {
		cancel()
		d, err = run(tctx)
		return d, false, err
	}
	d, err = run(sctx)
	cancel()
	if err == nil || !admission.IsCanceled(err) || ctx.Err() != nil {
		return d, false, err
	}
	nw.metrics.DegradedServed()
	s.log.Warn("admission degraded to decomposed bound",
		"endpoint", endpoint, "network", nw.id, "connection", cand.Name, "dry_run", dryRun)
	if dryRun {
		d, err = nw.state.TestWith(tctx, fallbackAnalyzer, cand)
	} else {
		d, err = nw.state.AdmitWith(tctx, fallbackAnalyzer, cand)
	}
	if err != nil {
		return d, false, err
	}
	return d, true, nil
}

// Bound marshals a delay bound, rendering the unbounded (+Inf) and
// undefined (NaN) cases as JSON null, which plain JSON numbers cannot
// represent.
type Bound float64

// MarshalJSON implements json.Marshaler.
func (b Bound) MarshalJSON() ([]byte, error) {
	return b.appendJSON(make([]byte, 0, 24)), nil
}

// appendJSON appends the bound as encoding/json would write the float64
// (shortest round-trip digits, exponent form below 1e-6 and from 1e21
// on), or null.
func (b Bound) appendJSON(dst []byte) []byte {
	f := float64(b)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-07 -> e-7, as encoding/json writes it.
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// Bounds is a bound vector. It encodes in one pass: element by element
// through Bound's Marshaler, a ~900-connection fabric's admit response
// costs more to encode than its admission analysis.
type Bounds []Bound

// MarshalJSON implements json.Marshaler; the bytes equal those of the
// element-wise encoding.
func (bs Bounds) MarshalJSON() ([]byte, error) {
	if bs == nil {
		return []byte("null"), nil
	}
	dst := make([]byte, 0, 20*len(bs)+2)
	dst = append(dst, '[')
	for i, b := range bs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = b.appendJSON(dst)
	}
	return append(dst, ']'), nil
}

func toBounds(fs []float64) Bounds {
	out := make(Bounds, len(fs))
	for i, f := range fs {
		out[i] = Bound(f)
	}
	return out
}

// ViolationSpec mirrors admission.Violation in JSON: one connection whose
// deadline the trial network would miss, with the offending bound (null
// when unbounded) and the deadline as structured fields.
type ViolationSpec struct {
	Connection string  `json:"connection"`
	Bound      Bound   `json:"bound"`
	Deadline   float64 `json:"deadline"`
}

func toViolations(vs []admission.Violation) []ViolationSpec {
	if len(vs) == 0 {
		return nil
	}
	out := make([]ViolationSpec, len(vs))
	for i, v := range vs {
		out[i] = ViolationSpec{Connection: v.Connection, Bound: Bound(v.Bound), Deadline: v.Deadline}
	}
	return out
}

// AdmitRequest is the body of POST /v2/networks/{netid}/connections.
type AdmitRequest struct {
	Connection netspec.ConnectionSpec `json:"connection"`
	// DryRun runs the admission test without committing the connection.
	DryRun bool `json:"dry_run,omitempty"`
	// TimeoutSeconds overrides the server's soft analysis budget for this
	// request; zero keeps the server default, negative is rejected.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// AdmitResponse reports an admission decision. Code carries the stable
// rejection code (deadline_missed, unstable, ...) and Violations the full
// list of deadline violations; Reason stays the human-readable summary.
type AdmitResponse struct {
	Admitted   bool            `json:"admitted"`
	DryRun     bool            `json:"dry_run,omitempty"`
	Code       string          `json:"code,omitempty"`
	Reason     string          `json:"reason,omitempty"`
	Violations []ViolationSpec `json:"violations,omitempty"`
	Bounds     Bounds          `json:"bounds,omitempty"`
	Count      int             `json:"count"`
	// Degraded marks a decision made against the decomposed fallback bound
	// after the requested analysis exceeded its soft budget; BoundSource
	// names the analysis that produced the bounds.
	Degraded    bool   `json:"degraded,omitempty"`
	BoundSource string `json:"bound_source,omitempty"`
}

func (s *Server) handleAdmit(nw *Network, w http.ResponseWriter, r *http.Request) {
	var req AdmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cand, err := netspec.ConnectionFromSpec(&req.Connection, nw.state.ServerIndex())
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	if req.TimeoutSeconds < 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "timeout_seconds must be non-negative")
		return
	}
	ctx := r.Context()
	if ctx.Err() != nil {
		s.shed(nw, w, "request deadline exceeded")
		return
	}
	if !s.acquireSlot(ctx, nw) {
		s.shed(nw, w, "no analysis slot free before the request deadline")
		return
	}
	defer s.releaseSlot()
	// The admission test analyzes an immutable snapshot outside any lock;
	// Admit commits with a version check and retries on conflict, so a
	// timed-out client still never leaves the fabric in an unknown state.
	d, degraded, err := s.runAdmission(ctx, nw, epAdmit, req.DryRun, cand, req.TimeoutSeconds)
	if err != nil {
		if admission.IsCanceled(err) {
			s.shed(nw, w, "admission analysis did not finish before the request deadline")
			return
		}
		code := d.Code
		if code == "" {
			code = CodeInvalidSpec
		}
		writeError(w, http.StatusBadRequest, code, err.Error())
		return
	}
	resp := AdmitResponse{
		Admitted:   d.Admitted,
		DryRun:     req.DryRun,
		Code:       d.Code,
		Reason:     d.Reason,
		Violations: toViolations(d.Violations),
		Bounds:     toBounds(d.Bounds),
		Count:      nw.state.Count(),
		Degraded:   degraded,
	}
	if degraded {
		resp.BoundSource = fallbackAnalyzer.Name()
	}
	writeJSON(w, http.StatusOK, resp)
}

// BatchDecision is the admission decision inside an admit op's envelope.
type BatchDecision struct {
	Connection string          `json:"connection"`
	Admitted   bool            `json:"admitted"`
	Code       string          `json:"code,omitempty"`
	Reason     string          `json:"reason,omitempty"`
	Violations []ViolationSpec `json:"violations,omitempty"`
	// MaxBound is the largest per-connection bound of the op's trial
	// analysis; null when unbounded or when the candidate never analyzed.
	MaxBound Bound `json:"max_bound"`
	// Degraded marks a decision made against the decomposed fallback
	// bound after the envelope's analysis exceeded its soft budget.
	Degraded bool `json:"degraded,omitempty"`
}

// BatchOp is one operation inside POST /v2/networks/{netid}/batch: an
// admission (op "admit", with the candidate spec) or a release (op
// "release", with the admitted connection's name).
type BatchOp struct {
	Op         string                  `json:"op"`
	Connection *netspec.ConnectionSpec `json:"connection,omitempty"`
	Name       string                  `json:"name,omitempty"`
}

// BatchRequest is the body of POST /v2/networks/{netid}/batch: a mixed,
// ordered list of admit and release operations, executed in order against
// the live set (greedy semantics — each operation sees the set as left by
// its predecessors).
type BatchRequest struct {
	Operations []BatchOp `json:"operations"`
	// DryRun tests admit operations without committing them; release
	// operations are invalid in a dry-run batch (there is nothing sound to
	// report without actually removing the connection).
	DryRun bool `json:"dry_run,omitempty"`
	// TimeoutSeconds overrides the server's soft analysis budget for each
	// admit operation; zero keeps the server default, negative is rejected.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// Batch item statuses: every per-op envelope carries exactly one.
const (
	BatchStatusAdmitted = "admitted" // admit op: candidate committed (or passed dry-run)
	BatchStatusRejected = "rejected" // admit op: candidate failed the admission test
	BatchStatusReleased = "released" // release op: connection removed
	BatchStatusError    = "error"    // op failed outright; see the error detail
)

// BatchOpResult is the per-operation envelope of a batch response: the
// operation's index and kind, its status, and either the admission
// decision (admit ops) or the release mode (release ops) or an error
// detail.
type BatchOpResult struct {
	Index    int            `json:"index"`
	Op       string         `json:"op"`
	Status   string         `json:"status"`
	Decision *BatchDecision `json:"decision,omitempty"`
	// Mode reports how a release was absorbed: "incremental" (baseline
	// shrunk in place) or "compacted" (baseline dropped, rebuilt lazily).
	Mode  string       `json:"mode,omitempty"`
	Error *ErrorDetail `json:"error,omitempty"`
}

// BatchResponse reports a whole mixed batch: per-operation envelopes in
// request order plus the totals.
type BatchResponse struct {
	DryRun   bool            `json:"dry_run,omitempty"`
	Admitted int             `json:"admitted"`
	Rejected int             `json:"rejected"`
	Released int             `json:"released"`
	Errors   int             `json:"errors"`
	Results  []BatchOpResult `json:"results"`
	Count    int             `json:"count"`
}

func (s *Server) handleBatch(nw *Network, w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Operations) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "batch has no operations")
		return
	}
	if req.TimeoutSeconds < 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "timeout_seconds must be non-negative")
		return
	}
	index := nw.state.ServerIndex()
	// Validate the whole batch up front so a malformed operation 7 fails
	// the request before operation 0 commits anything.
	cands := make([]topo.Connection, len(req.Operations))
	for i, op := range req.Operations {
		switch op.Op {
		case "admit":
			if op.Connection == nil {
				writeError(w, http.StatusBadRequest, CodeInvalidSpec,
					fmt.Sprintf("operation %d: admit requires a connection", i))
				return
			}
			cand, err := netspec.ConnectionFromSpec(op.Connection, index)
			if err != nil {
				writeError(w, http.StatusBadRequest, CodeInvalidSpec,
					fmt.Sprintf("operation %d: %v", i, err))
				return
			}
			cands[i] = cand
		case "release":
			if strings.TrimSpace(op.Name) == "" {
				writeError(w, http.StatusBadRequest, CodeInvalidSpec,
					fmt.Sprintf("operation %d: release requires a name", i))
				return
			}
			if req.DryRun {
				writeError(w, http.StatusBadRequest, CodeInvalidSpec,
					fmt.Sprintf("operation %d: release is not supported in dry-run batches", i))
				return
			}
		default:
			writeError(w, http.StatusBadRequest, CodeInvalidSpec,
				fmt.Sprintf("operation %d: unknown op %q (want admit or release)", i, op.Op))
			return
		}
	}
	ctx := r.Context()
	if ctx.Err() != nil {
		s.shed(nw, w, "request deadline exceeded")
		return
	}
	if !s.acquireSlot(ctx, nw) {
		s.shed(nw, w, "no analysis slot free before the request deadline")
		return
	}
	defer s.releaseSlot()

	// The envelope runs through the engine's pipelined batch path: one
	// snapshot commit instead of one per operation, and
	// no interleaving with concurrent traffic mid-envelope. A hard
	// deadline therefore sheds the whole envelope with nothing committed
	// (previously the committed prefix stayed).
	ops := make([]admission.Op, len(req.Operations))
	for i, op := range req.Operations {
		if op.Op == "admit" {
			ops[i] = admission.Op{Kind: admission.OpAdmit, Candidate: cands[i]}
		} else {
			ops[i] = admission.Op{Kind: admission.OpRelease, Name: op.Name}
		}
	}
	results, degraded, err := s.runBatch(ctx, nw, req.DryRun, cands, ops, req.TimeoutSeconds)
	if err != nil {
		if admission.IsCanceled(err) {
			s.shed(nw, w, "batch deadline exceeded")
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}

	resp := BatchResponse{DryRun: req.DryRun, Results: make([]BatchOpResult, 0, len(req.Operations))}
	for i, op := range req.Operations {
		item := BatchOpResult{Index: i, Op: op.Op}
		r := results[i]
		switch op.Op {
		case "admit":
			d := r.Decision
			dec := &BatchDecision{
				Connection: cands[i].Name,
				Admitted:   d.Admitted,
				Code:       d.Code,
				Reason:     d.Reason,
				Violations: toViolations(d.Violations),
				MaxBound:   Bound(d.MaxBound()),
				Degraded:   degraded,
			}
			switch {
			case r.Err != nil:
				item.Status = BatchStatusError
				item.Error = &ErrorDetail{Code: d.Code, Message: r.Err.Error()}
				if item.Error.Code == "" {
					item.Error.Code = CodeInvalidSpec
				}
				resp.Errors++
			case d.Admitted:
				item.Status = BatchStatusAdmitted
				item.Decision = dec
				resp.Admitted++
			default:
				item.Status = BatchStatusRejected
				item.Decision = dec
				resp.Rejected++
			}
		case "release":
			if !r.Released {
				item.Status = BatchStatusError
				item.Error = &ErrorDetail{Code: CodeNotFound,
					Message: fmt.Sprintf("no admitted connection named %q", op.Name)}
				resp.Errors++
				break
			}
			item.Status = BatchStatusReleased
			item.Mode = releaseMode(r.Release)
			resp.Released++
		}
		resp.Results = append(resp.Results, item)
	}
	resp.Count = nw.state.Count()
	writeJSON(w, http.StatusOK, resp)
}

// runBatch executes a whole envelope through the pipelined batch path
// under the serving degradation policy. Dry-run envelopes evaluate every
// candidate against one pinned snapshot (TestBatch); live envelopes apply
// through ApplyBatch. If the soft budget expires while the hard deadline
// is alive, the envelope reruns on the decomposed fallback — sound
// because the canceled run committed nothing (dry runs never commit; a
// live envelope is atomic).
func (s *Server) runBatch(ctx context.Context, nw *Network, dryRun bool, cands []topo.Connection, ops []admission.Op, override float64) ([]admission.OpResult, bool, error) {
	tctx, tm := analysis.WithTimings(ctx)
	defer s.observeStages(nw, epBatch, tm)
	run := func(runCtx context.Context) ([]admission.OpResult, error) {
		if dryRun {
			return nw.state.TestBatch(runCtx, cands)
		}
		br, err := nw.state.ApplyBatch(runCtx, ops)
		if err != nil {
			return nil, err
		}
		return br.Results, nil
	}
	canDegrade := degradable(nw.state.Engine().Analyzer())
	sctx, cancel, hasSoft := s.softContext(tctx, override)
	if !hasSoft || !canDegrade {
		cancel()
		res, err := run(tctx)
		return res, false, err
	}
	res, err := run(sctx)
	cancel()
	if err == nil || !admission.IsCanceled(err) || ctx.Err() != nil {
		return res, false, err
	}
	nw.metrics.DegradedServed()
	s.log.Warn("batch degraded to decomposed bound",
		"network", nw.id, "dry_run", dryRun, "operations", len(ops))
	if dryRun {
		res, err = nw.state.TestBatchWith(tctx, fallbackAnalyzer, cands)
	} else {
		res, err = s.applyBatchDegraded(tctx, nw, cands, ops)
	}
	if err != nil {
		return res, false, err
	}
	return res, true, nil
}

// applyBatchDegraded replays a live envelope per-op on the fallback
// analyzer: the canceled pipelined run committed nothing, so the replay
// starts clean. Degraded envelopes trade the single-commit invariant for
// meeting the deadline (per-op commits, like the pre-pipelining path).
func (s *Server) applyBatchDegraded(ctx context.Context, nw *Network, cands []topo.Connection, ops []admission.Op) ([]admission.OpResult, error) {
	out := make([]admission.OpResult, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case admission.OpAdmit:
			d, err := nw.state.AdmitWith(ctx, fallbackAnalyzer, cands[i])
			if err != nil && admission.IsCanceled(err) {
				return nil, err
			}
			out[i] = admission.OpResult{Decision: d, Err: err}
		case admission.OpRelease:
			info, ok := nw.state.Release(op.Name)
			out[i] = admission.OpResult{Released: ok, Release: info}
		}
	}
	return out, nil
}

// releaseMode names how the engine absorbed a release in API responses.
func releaseMode(info admission.ReleaseInfo) string {
	if info.Incremental {
		return "incremental"
	}
	return "compacted"
}

// ListResponse is the body of GET /v2/networks/{netid}/connections. Count
// is the number of connections matching the filter (the whole admitted set
// without one); Connections is the requested page and NextCursor, when
// present, fetches the next page (pass it back as ?cursor=).
type ListResponse struct {
	Count       int                      `json:"count"`
	Utilization []float64                `json:"utilization"`
	Connections []netspec.ConnectionSpec `json:"connections"`
	NextCursor  string                   `json:"next_cursor,omitempty"`
}

// encodeCursor / decodeCursor wrap the page offset in an opaque token so
// clients do not couple to the paging scheme. The token pins the snapshot
// version the listing was cut from: offsets are only meaningful within one
// immutable view, so a commit between pages (a release compacting the set,
// an admission appending to it) invalidates outstanding cursors instead of
// silently skipping or duplicating survivors.
func encodeCursor(offset int, version uint64) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(strconv.Itoa(offset) + "@" + strconv.FormatUint(version, 10)))
}

func decodeCursor(token string) (int, uint64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return 0, 0, fmt.Errorf("malformed cursor")
	}
	off, ver, found := strings.Cut(string(raw), "@")
	if !found {
		return 0, 0, fmt.Errorf("malformed cursor")
	}
	offset, err := strconv.Atoi(off)
	if err != nil || offset < 0 {
		return 0, 0, fmt.Errorf("malformed cursor")
	}
	version, err := strconv.ParseUint(ver, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("malformed cursor")
	}
	return offset, version, nil
}

func (s *Server) handleList(nw *Network, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0 // 0: no paging (the whole set), preserving the pre-pagination contract
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidSpec, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	offset := 0
	cursorVersion := uint64(0)
	hasCursor := false
	if v := q.Get("cursor"); v != "" {
		off, ver, err := decodeCursor(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
			return
		}
		offset, cursorVersion, hasCursor = off, ver, true
	}

	// Replica read: the listing pages the latest immutable snapshot's
	// commit-ordered set without copying it; the header tells the client which
	// version of the write history it reflects.
	conns, version, util := nw.state.ReadView()
	setSnapshotVersion(w, version)

	// A cursor is an offset into the snapshot it was cut from; any commit
	// since then may have reordered or compacted the set, so continuing to
	// page would skip or duplicate survivors. 410 tells the client to
	// restart the listing.
	if hasCursor && cursorVersion != version {
		writeError(w, http.StatusGone, CodeStaleCursor,
			fmt.Sprintf("cursor was cut from snapshot version %d, current is %d; restart the listing", cursorVersion, version))
		return
	}

	// ?server= narrows the listing to connections whose path crosses the
	// named fabric server.
	if name := q.Get("server"); name != "" {
		serverIdx := -1
		for i, sv := range nw.state.Servers() {
			if sv.Name == name {
				serverIdx = i
				break
			}
		}
		if serverIdx < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Sprintf("no fabric server named %q", name))
			return
		}
		// A fresh slice: conns is shared with the immutable snapshot.
		var filtered []topo.Connection
		for _, c := range conns {
			for _, hop := range c.Path {
				if hop == serverIdx {
					filtered = append(filtered, c)
					break
				}
			}
		}
		conns = filtered
	}

	resp := ListResponse{Count: len(conns), Utilization: util}
	page := conns
	if offset > 0 {
		if offset > len(conns) {
			offset = len(conns)
		}
		page = conns[offset:]
	}
	if limit > 0 && len(page) > limit {
		page = page[:limit]
		resp.NextCursor = encodeCursor(offset+limit, version)
	}
	resp.Connections = nw.state.ConnectionSpecs(page)
	writeJSON(w, http.StatusOK, resp)
}

// RemoveResponse is the body of DELETE /v2/networks/{netid}/connections/
// {name}. Mode reports how the engine absorbed the release: "incremental"
// (the analysis baseline was shrunk in place, so the next test stays fast)
// or "compacted" (the baseline was dropped and rebuilds lazily).
type RemoveResponse struct {
	Removed string `json:"removed"`
	Count   int    `json:"count"`
	Mode    string `json:"mode"`
}

func (s *Server) handleRemove(nw *Network, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "empty connection name")
		return
	}
	info, ok := nw.state.Release(name)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no admitted connection named %q", name))
		return
	}
	writeJSON(w, http.StatusOK, RemoveResponse{Removed: name, Count: nw.state.Count(), Mode: releaseMode(info)})
}

// StatsCounter pairs the incremental and full counts of one operation.
type StatsCounter struct {
	Incremental uint64 `json:"incremental"`
	Full        uint64 `json:"full"`
}

// AffectedBucket is one bucket of the affected-set histogram: how many
// incremental analyses had a closure of at most LE admitted connections
// (cumulative, Prometheus-style; LE null is the +Inf bucket).
type AffectedBucket struct {
	LE    Bound  `json:"le"`
	Count uint64 `json:"count"`
}

// StatsResponse is the body of GET /v2/networks/{netid}/stats: the
// admission engine's counters as a stable JSON schema. Releases.Full
// counts compacted releases (baseline dropped); AffectedSum/AffectedCount
// give the mean closure size alongside the histogram. Components is the
// number of independent components — the engine's commit domains — in the
// current snapshot.
type StatsResponse struct {
	Analyzer        string           `json:"analyzer"`
	Incremental     bool             `json:"incremental"`
	Admitted        int              `json:"admitted"`
	SnapshotVersion uint64           `json:"snapshot_version"`
	Components      int              `json:"components"`
	BaselineEpoch   uint64           `json:"baseline_epoch"`
	Tests           StatsCounter     `json:"tests"`
	Releases        StatsCounter     `json:"releases"`
	CommitConflicts uint64           `json:"commit_conflicts"`
	BatchEnvelopes  uint64           `json:"batch_envelopes"`
	BatchOps        uint64           `json:"batch_ops"`
	BatchCommits    uint64           `json:"batch_commits"`
	Affected        []AffectedBucket `json:"affected_histogram"`
	AffectedCount   uint64           `json:"affected_count"`
	AffectedSum     uint64           `json:"affected_sum"`
}

func (s *Server) handleStats(nw *Network, w http.ResponseWriter, r *http.Request) {
	eng := nw.state.Engine()
	st := eng.Stats()
	snap := eng.Snapshot()
	setSnapshotVersion(w, snap.Version())
	resp := StatsResponse{
		Analyzer:        eng.Analyzer().Name(),
		Incremental:     eng.Incremental(),
		Admitted:        snap.Count(),
		SnapshotVersion: snap.Version(),
		Components:      snap.Components(),
		BaselineEpoch:   st.BaselineEpoch,
		Tests:           StatsCounter{Incremental: st.IncrementalTests, Full: st.FullTests},
		Releases:        StatsCounter{Incremental: st.IncrementalReleases, Full: st.CompactedReleases},
		CommitConflicts: st.CommitConflicts,
		BatchEnvelopes:  st.BatchEnvelopes,
		BatchOps:        st.BatchOps,
		BatchCommits:    st.BatchCommits,
		AffectedCount:   st.AffectedCount,
		AffectedSum:     st.AffectedSum,
	}
	bounds := admission.AffectedBucketBounds()
	cum := uint64(0)
	for i, ub := range bounds {
		cum += st.AffectedBuckets[i]
		resp.Affected = append(resp.Affected, AffectedBucket{LE: Bound(ub), Count: cum})
	}
	resp.Affected = append(resp.Affected, AffectedBucket{LE: Bound(math.Inf(1)), Count: st.AffectedCount})
	writeJSON(w, http.StatusOK, resp)
}

// NetworkInfo is one entry of the GET /v2/networks listing.
type NetworkInfo struct {
	ID              string `json:"id"`
	Default         bool   `json:"default"`
	Admitted        int    `json:"admitted"`
	Components      int    `json:"components"`
	SnapshotVersion uint64 `json:"snapshot_version"`
}

// NetworksResponse is the body of GET /v2/networks.
type NetworksResponse struct {
	Networks []NetworkInfo `json:"networks"`
}

func (s *Server) handleNetworks(_ *Network, w http.ResponseWriter, r *http.Request) {
	defID := s.reg.DefaultID()
	resp := NetworksResponse{Networks: []NetworkInfo{}}
	for _, id := range s.reg.IDs() {
		nw, ok := s.reg.Get(id)
		if !ok {
			continue
		}
		snap := nw.state.Engine().Snapshot()
		resp.Networks = append(resp.Networks, NetworkInfo{
			ID:              id,
			Default:         id == defID,
			Admitted:        snap.Count(),
			Components:      snap.Components(),
			SnapshotVersion: snap.Version(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// AnalyzeRequest is the body of POST /v2/networks/{netid}/analyze.
type AnalyzeRequest struct {
	// Analyzer names the algorithm ("integrated" when empty); see
	// AnalyzerNames for the accepted set.
	Analyzer string `json:"analyzer,omitempty"`
	// Network is the full netspec document to analyze.
	Network netspec.Spec `json:"network"`
	// TimeoutSeconds overrides the server's soft analysis budget for this
	// request; zero keeps the server default, negative is rejected.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// AnalyzeResponse reports per-connection delay bounds and per-server
// backlog bounds. Null entries mark unbounded (unstable) connections.
type AnalyzeResponse struct {
	Algorithm string `json:"algorithm"`
	Digest    string `json:"digest"`
	Cached    bool   `json:"cached"`
	Bounds    Bounds `json:"bounds"`
	Backlogs  Bounds `json:"backlogs,omitempty"`
	MaxBound  Bound  `json:"max_bound"`
	// Degraded marks bounds produced by the decomposed fallback after the
	// requested analyzer exceeded its soft budget; BoundSource names the
	// analysis that produced them.
	Degraded    bool   `json:"degraded,omitempty"`
	BoundSource string `json:"bound_source,omitempty"`
}

func (s *Server) handleAnalyze(nw *Network, w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	name := req.Analyzer
	if name == "" {
		name = "integrated"
	}
	if req.TimeoutSeconds < 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "timeout_seconds must be non-negative")
		return
	}
	analyzer, err := s.pick(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownAnalyzer, err.Error())
		return
	}
	net, err := netspec.FromSpec(&req.Network)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	digest, err := netspec.Digest(net)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	key := analyzer.Name() + ":" + digest
	if res, ok := nw.cache.Get(key); ok {
		writeAnalyzeResponse(w, res, digest, true, false)
		return
	}
	ctx := r.Context()
	if ctx.Err() != nil {
		s.shed(nw, w, "request deadline exceeded")
		return
	}
	if !s.acquireSlot(ctx, nw) {
		s.shed(nw, w, "no analysis slot free before the request deadline")
		return
	}
	defer s.releaseSlot()
	// The analysis runs on the handler goroutine under the request's hard
	// deadline: a shed request cancels its analysis cooperatively instead
	// of abandoning a goroutine to finish unobserved.
	res, degradedRes, err := s.runAnalysis(ctx, nw, epAnalyze, analyzer, net, req.TimeoutSeconds)
	if err != nil {
		if admission.IsCanceled(err) {
			s.shed(nw, w, "analysis did not finish before the request deadline")
			return
		}
		writeError(w, http.StatusUnprocessableEntity, CodeInvalidSpec, err.Error())
		return
	}
	if degradedRes {
		// A degraded result is a valid decomposed analysis: cache it under
		// the fallback's own key, never under the requested analyzer's.
		nw.cache.Put(fallbackAnalyzer.Name()+":"+digest, res)
	} else {
		nw.cache.Put(key, res)
	}
	writeAnalyzeResponse(w, res, digest, false, degradedRes)
}

func writeAnalyzeResponse(w http.ResponseWriter, res *analysis.Result, digest string, cached, degraded bool) {
	resp := AnalyzeResponse{
		Algorithm: res.Algorithm,
		Digest:    digest,
		Cached:    cached,
		Bounds:    toBounds(res.Bounds),
		Backlogs:  toBounds(res.Backlogs),
		MaxBound:  Bound(res.MaxBound()),
		Degraded:  degraded,
	}
	if degraded {
		resp.BoundSource = res.Algorithm
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(nw *Network, w http.ResponseWriter, r *http.Request) {
	setSnapshotVersion(w, nw.state.SnapshotVersion())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	nw.metrics.WriteText(w)
	writeCacheMetrics(w, nw.cache)
	writeAdmissionMetrics(w, nw.state)
	writeEngineMetrics(w, nw.state)
}

func (s *Server) handleHealthz(_ *Network, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
