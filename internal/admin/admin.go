// Package admin serves the daemon's versioned HTTP admin plane — the
// one way the daemon's documents (stats, trace, dump, sessions, tenants,
// nodes, operations) and admin verbs leave the process.
//
// Every endpoint lives under /v1. Reads answer synchronously; mutating
// verbs (drain, revive, failover, compact, snapshot) return 202 with a
// pollable operation — POST /v1/nodes/3/drain answers with the
// operation document and a Location header pointing at
// /v1/operations/{id}, where the caller polls until the status reaches
// completed or failed. Failures travel as a {code, error, request_id}
// envelope whose code field reuses the wire protocol's machine codes,
// so errors.Is-able sentinels survive the HTTP hop exactly as they do
// the socket hop.
//
// Cross-cutting middleware: every request gets an X-Request-Id
// (honored if the client sent one, minted otherwise) that is echoed on
// the response, threaded into the operation document and recorded in
// the daemon's event trace alongside scheduler events; a per-client
// token bucket throttles abusive pollers with 429 before any handler
// runs.
//
// /debug/vars and /debug/pprof are served unversioned, where the
// collecting tools look for them.
package admin

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/errs"
)

// RequestIDHeader carries the request correlation ID both ways.
const RequestIDHeader = "X-Request-Id"

// SocketName is the UNIX socket, beside the control socket in the
// daemon's base directory, on which convgpu-scheduler always serves
// this plane: reaching it takes access to the path, not an open port.
const SocketName = "admin.sock"

// Default throttle: enough for dashboards polling every endpoint each
// second with headroom, small enough that a tight poll loop trips it.
const (
	defaultRatePerSec = 50
	defaultBurst      = 100
)

// maxTracePage bounds one /v1/trace page: it keeps a single response
// from serializing the entire ring at once.
const maxTracePage = 1024

// Config configures the admin plane.
type Config struct {
	// Daemon is the running scheduler daemon the plane fronts. Required.
	Daemon *daemon.Daemon
	// Clock stamps operations, trace events and throttle refills; nil
	// uses the real clock.
	Clock clock.Clock
	// RatePerSec and Burst shape the per-client token bucket. Zero
	// picks the defaults; a negative RatePerSec disables throttling.
	RatePerSec float64
	Burst      float64
}

// Handler is the admin plane's http.Handler.
type Handler struct {
	d   *daemon.Daemon
	clk clock.Clock
	mux *http.ServeMux

	rate  float64
	burst float64

	reqSeq atomic.Uint64

	mu      sync.Mutex
	buckets map[string]*bucket
}

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// New builds the admin handler for a running daemon.
func New(cfg Config) (*Handler, error) {
	if cfg.Daemon == nil {
		return nil, errors.New("admin: Config.Daemon is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.RatePerSec == 0 {
		cfg.RatePerSec = defaultRatePerSec
	}
	if cfg.Burst <= 0 {
		cfg.Burst = defaultBurst
	}
	h := &Handler{
		d:       cfg.Daemon,
		clk:     cfg.Clock,
		rate:    cfg.RatePerSec,
		burst:   cfg.Burst,
		buckets: make(map[string]*bucket),
	}
	h.mux = h.routes()
	return h, nil
}

// ServeHTTP implements http.Handler: request-ID assignment, throttling,
// then the route table.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get(RequestIDHeader)
	if reqID == "" {
		reqID = fmt.Sprintf("req-%d", h.reqSeq.Add(1))
		r.Header.Set(RequestIDHeader, reqID)
	}
	w.Header().Set(RequestIDHeader, reqID)
	if !h.allow(r) {
		h.writeError(w, r, http.StatusTooManyRequests, errors.New("admin: request rate over per-client limit"))
		return
	}
	h.mux.ServeHTTP(w, r)
}

// allow runs the per-client token bucket. The client key is the remote
// IP (a proxy in front should throttle upstream).
func (h *Handler) allow(r *http.Request) bool {
	if h.rate < 0 {
		return true
	}
	key, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		key = r.RemoteAddr
	}
	now := h.clk.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	b, ok := h.buckets[key]
	if !ok {
		b = &bucket{tokens: h.burst, last: now}
		h.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * h.rate
	if b.tokens > h.burst {
		b.tokens = h.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// routes builds the /v1 route table plus the /debug endpoints.
func (h *Handler) routes() *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h.d.Obs().Registry().WritePrometheus(w)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		data, err := h.d.Obs().StatsJSON()
		if err != nil {
			h.writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		writeRawJSON(w, http.StatusOK, data)
	})
	mux.HandleFunc("GET /v1/trace", h.handleTrace)
	mux.HandleFunc("GET /v1/dump", func(w http.ResponseWriter, r *http.Request) {
		data, err := h.d.DumpJSON(intQuery(r, "limit", 0))
		if err != nil {
			h.writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		writeRawJSON(w, http.StatusOK, data)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		page := h.d.Sessions(r.URL.Query().Get("after"), intQuery(r, "limit", 0))
		h.writeJSON(w, r, http.StatusOK, page)
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		tenants := h.d.Tenants()
		if tenants == nil {
			tenants = []core.TenantUsage{}
		}
		h.writeJSON(w, r, http.StatusOK, tenants)
	})
	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		nodes, err := h.d.NodeStatuses()
		if err != nil {
			h.writeError(w, r, http.StatusNotFound, err)
			return
		}
		h.writeJSON(w, r, http.StatusOK, nodes)
	})
	mux.HandleFunc("GET /v1/wal", func(w http.ResponseWriter, r *http.Request) {
		h.writeJSON(w, r, http.StatusOK, h.d.WALStats())
	})
	mux.HandleFunc("GET /v1/operations", func(w http.ResponseWriter, r *http.Request) {
		h.writeJSON(w, r, http.StatusOK, h.d.Ops().List())
	})
	mux.HandleFunc("GET /v1/operations/{id}", func(w http.ResponseWriter, r *http.Request) {
		op, ok := h.d.Ops().Get(r.PathValue("id"))
		if !ok {
			h.writeError(w, r, http.StatusNotFound, fmt.Errorf("admin: unknown operation %q", r.PathValue("id")))
			return
		}
		h.writeJSON(w, r, http.StatusOK, op)
	})

	mux.HandleFunc("POST /v1/nodes/{node}/drain", h.nodeVerb("drain", h.d.DrainNode))
	mux.HandleFunc("POST /v1/nodes/{node}/revive", h.nodeVerb("revive", h.d.ReviveNode))
	mux.HandleFunc("POST /v1/nodes/{node}/failover", func(w http.ResponseWriter, r *http.Request) {
		node, err := strconv.Atoi(r.PathValue("node"))
		if err != nil {
			h.writeError(w, r, http.StatusBadRequest, fmt.Errorf("admin: node index %q: %v", r.PathValue("node"), err))
			return
		}
		h.submit(w, r, "failover", fmt.Sprintf("node %d", node), func() (any, error) {
			return h.d.FailNode(node)
		})
	})
	mux.HandleFunc("POST /v1/wal/compact", func(w http.ResponseWriter, r *http.Request) {
		h.submit(w, r, "compact", "wal", func() (any, error) {
			return h.d.CompactWAL()
		})
	})
	mux.HandleFunc("POST /v1/wal/snapshot", func(w http.ResponseWriter, r *http.Request) {
		h.submit(w, r, "snapshot", "wal", func() (any, error) {
			seq, err := h.d.SnapshotWAL()
			if err != nil {
				return nil, err
			}
			return map[string]uint64{"snapshot_seq": seq}, nil
		})
	})

	// expvar's package-level Handler serves the default var set without
	// Publishing anything new, so mounting it repeatedly (tests spin up
	// many planes in one process) never panics on duplicate names.
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleTrace serves one cursor page of the event trace:
// ?after=<seq>&limit=<n>&container=<id>. The response's next_after and
// more fields drive the next request, so a long trace is retrieved
// whole instead of truncated to one frame.
func (h *Handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	limit := intQuery(r, "limit", maxTracePage)
	if limit <= 0 || limit > maxTracePage {
		limit = maxTracePage
	}
	after, err := strconv.ParseUint(valueOr(r, "after", "0"), 10, 64)
	if err != nil {
		h.writeError(w, r, http.StatusBadRequest, fmt.Errorf("admin: after cursor: %v", err))
		return
	}
	data, err := h.d.Obs().Tracer().DumpPage(r.URL.Query().Get("container"), after, limit)
	if err != nil {
		h.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeRawJSON(w, http.StatusOK, data)
}

// nodeVerb builds the handler for a synchronous-under-the-hood node
// verb submitted as an async operation.
func (h *Handler) nodeVerb(kind string, fn func(int) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		node, err := strconv.Atoi(r.PathValue("node"))
		if err != nil {
			h.writeError(w, r, http.StatusBadRequest, fmt.Errorf("admin: node index %q: %v", r.PathValue("node"), err))
			return
		}
		h.submit(w, r, kind, fmt.Sprintf("node %d", node), func() (any, error) {
			return nil, fn(node)
		})
	}
}

// submit queues one mutating verb on the operation manager and answers
// 202 with the operation document plus its poll Location. The verb is
// recorded in the daemon's event trace under the request ID before the
// operation runs, so the trace shows the admin action ordered against
// the scheduler events it caused.
func (h *Handler) submit(w http.ResponseWriter, r *http.Request, kind, detail string, fn func() (any, error)) {
	reqID := r.Header.Get(RequestIDHeader)
	h.d.Obs().Tracer().RecordAdmin(h.clk.Now(), "admin_"+kind, reqID, detail)
	id, err := h.d.Ops().Submit(kind, reqID, detail, fn)
	if err != nil {
		h.writeError(w, r, http.StatusServiceUnavailable, err)
		return
	}
	op, _ := h.d.Ops().Get(id)
	w.Header().Set("Location", "/v1/operations/"+id)
	h.writeJSON(w, r, http.StatusAccepted, op)
}

// ErrorBody is the error envelope every failing endpoint answers with.
// Code is the error's class in errs's table (errs.FromCode reverses it
// client-side); RequestID lets an operator grep the trace
// and logs for the failing call.
type ErrorBody struct {
	Code      string `json:"code,omitempty"`
	Error     string `json:"error"`
	RequestID string `json:"request_id"`
}

func (h *Handler) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	body := ErrorBody{
		Code:      errs.Code(err),
		Error:     err.Error(),
		RequestID: r.Header.Get(RequestIDHeader),
	}
	data, merr := json.Marshal(body)
	if merr != nil {
		http.Error(w, err.Error(), status)
		return
	}
	writeRawJSON(w, status, data)
}

func (h *Handler) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		h.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeRawJSON(w, status, data)
}

func writeRawJSON(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// intQuery parses one integer query parameter, falling back on def for
// absent or malformed values (read endpoints clamp anyway).
func intQuery(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func valueOr(r *http.Request, key, def string) string {
	if v := r.URL.Query().Get(key); v != "" {
		return v
	}
	return def
}
