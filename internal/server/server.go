// Package server implements quotd, the long-running derivation service: an
// HTTP/JSON daemon that accepts specification uploads and derivation
// requests, runs derivations on a bounded worker pool with per-request
// deadlines and cancellation, deduplicates identical in-flight requests
// (singleflight), and serves repeat requests from a content-addressed
// converter cache keyed by the canonical hash of the inputs.
//
// The quotient is a pure function of its (A, B) inputs — the Calvert & Lam
// construction is deterministic and complete — so a derivation result may
// be cached under a key derived from the canonical serialization of every
// input specification plus the semantic options (DESIGN.md argues the
// soundness of this in detail). Repeat and concurrent requests then cost
// O(lookup) instead of O(derive).
//
// The wire contract — request/response envelopes, error codes, the cache
// key — lives in internal/api, shared with `quotient -json`, the load
// harness, and quotd's own shard-to-shard traffic. Several servers form a
// sharded cluster via StartCluster: each derivation key has one owner on a
// consistent-hash ring, a local miss is filled from the owner before the
// local engine runs, and the per-node singleflight then composes into a
// cluster-wide one (see cluster.go).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/spec"
)

// Config tunes a Server. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// PoolWorkers is how many derivations may run concurrently; default
	// GOMAXPROCS. MaxQueue is how many more may wait; default 64; beyond
	// that requests are shed with 503. MaxQueue < 0 means no queue: every
	// request must win a slot immediately or be shed.
	PoolWorkers int
	MaxQueue    int
	// CacheEntries bounds the in-memory converter cache; default 1024.
	// CacheDir, when set, adds write-through disk persistence.
	CacheEntries int
	CacheDir     string
	// DefaultTimeout bounds a derivation when the request does not ask;
	// MaxTimeout clamps what a request may ask for. Defaults 30s / 5m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxStatesCap, when > 0, caps every derivation's safety-phase state
	// count, including requests that asked for no limit — the daemon-side
	// guard against PSPACE-hard inputs from untrusted clients.
	MaxStatesCap int
	// MaxBodyBytes bounds request bodies; default 8 MiB.
	MaxBodyBytes int64
	// Logf receives one structured line per request plus cache/persistence
	// diagnostics; nil disables logging.
	Logf func(format string, v ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.PoolWorkers <= 0 {
		out.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if out.MaxQueue == 0 {
		out.MaxQueue = 64
	}
	if out.CacheEntries <= 0 {
		out.CacheEntries = 1024
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 30 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 5 * time.Minute
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = 8 << 20
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Server is the quotd derivation service. Construct with New, mount
// Handler() on an http.Server, and on SIGTERM call StartDrain, let the
// http.Server drain (http.Server.Shutdown), then Abort to cancel whatever
// is still inside the engine.
type Server struct {
	cfg     Config
	logf    func(format string, v ...any)
	cache   *Cache
	pool    *pool
	flights *flightGroup
	met     *serverMetrics
	mux     *http.ServeMux
	start   time.Time

	// cluster is nil on a single node; StartCluster swaps in the shard
	// state. Handlers read the snapshot once per request.
	cluster atomic.Pointer[clusterState]

	draining atomic.Bool
	baseCtx  context.Context
	abort    context.CancelFunc
	reqSeq   atomic.Int64

	regMu    sync.RWMutex
	registry map[string]*spec.Spec

	// preDerive, when non-nil, is called by a flight leader after it holds
	// a pool slot and before it enters the engine. Test hook: lets tests
	// make singleflight coalescing deterministic.
	preDerive func(key string)
}

// New builds a Server. The only error source is an unusable cache
// directory.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		logf:     cfg.Logf,
		pool:     newPool(cfg.PoolWorkers, cfg.MaxQueue),
		flights:  newFlightGroup(),
		met:      newServerMetrics(),
		start:    time.Now(),
		registry: make(map[string]*spec.Spec),
	}
	cache, err := NewCache(cfg.CacheEntries, cfg.CacheDir, cfg.Logf)
	if err != nil {
		return nil, err
	}
	s.cache = cache
	s.baseCtx, s.abort = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// StartDrain flips readiness to not-ready. In-flight and queued requests
// keep running; new work is still accepted on this handler (connection
// draining is the listener's job — http.Server.Shutdown), but load
// balancers watching /readyz stop sending traffic.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Abort cancels the base context every derivation runs under, aborting
// whatever is still inside the engine via DeriveContext cancellation. Call
// it after the drain deadline, not before.
func (s *Server) Abort() { s.abort() }

// Cache exposes the converter cache (read-mostly; used by stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// RegisterSpec adds or replaces a named specification in the reference
// registry, as POST /v1/specs would.
func (s *Server) RegisterSpec(sp *spec.Spec) {
	s.regMu.Lock()
	s.registry[sp.Name()] = sp
	s.regMu.Unlock()
}

func (s *Server) lookupSpec(name string) (*spec.Spec, bool) {
	s.regMu.RLock()
	sp, ok := s.registry[name]
	s.regMu.RUnlock()
	return sp, ok
}

func (s *Server) specCount() int {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return len(s.registry)
}

func (s *Server) listSpecs() []api.SpecInfo {
	s.regMu.RLock()
	out := make([]api.SpecInfo, 0, len(s.registry))
	for _, sp := range s.registry {
		out = append(out, specInfo(sp))
	}
	s.regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// compiledRequest is a DeriveRequest after resolution and validation:
// parsed specs, effective options, and the content address.
type compiledRequest struct {
	key      string
	a        *spec.Spec
	envs     []*spec.Spec
	comps    []*spec.Spec
	coreOpts core.Options
	prune    bool
	minimize bool
	timeout  time.Duration
}

// resolveSource turns one SpecSource into a parsed spec. Parse failures
// carry the input's role and line (bad_spec); a dangling reference is
// not_found.
func (s *Server) resolveSource(role string, src api.SpecSource) (*spec.Spec, *api.Error) {
	switch {
	case src.Inline != "" && src.Ref != "":
		return nil, &api.Error{Code: api.ErrCodeBadRequest,
			Message: fmt.Sprintf("%s: give inline or ref, not both", role)}
	case src.Inline != "":
		sp, err := dsl.ParseString(src.Inline)
		if err != nil {
			return nil, api.SpecError(role, err)
		}
		return sp, nil
	case src.Ref != "":
		sp, ok := s.lookupSpec(src.Ref)
		if !ok {
			return nil, &api.Error{Code: api.ErrCodeNotFound,
				Message: fmt.Sprintf("%s: no uploaded spec named %q", role, src.Ref)}
		}
		return sp, nil
	default:
		return nil, &api.Error{Code: api.ErrCodeBadRequest,
			Message: fmt.Sprintf("%s: empty spec source", role)}
	}
}

// compile validates and resolves a request, normalizes the service, applies
// server-side caps, and computes the cache key from the effective inputs.
func (s *Server) compile(req *api.DeriveRequest) (*compiledRequest, *api.Error) {
	a, werr := s.resolveSource("service", req.Service)
	if werr != nil {
		return nil, werr
	}
	if err := a.IsNormalForm(); err != nil {
		if !req.Options.Normalize {
			return nil, &api.Error{Code: api.ErrCodeBadRequest,
				Message: fmt.Sprintf("service: %v (set options.normalize)", err)}
		}
		a = a.Normalize()
	}
	if len(req.Envs) == 0 && len(req.Components) == 0 {
		return nil, &api.Error{Code: api.ErrCodeBadRequest,
			Message: "give envs (robust variants) or components (to compose)"}
	}
	if len(req.Envs) > 0 && len(req.Components) > 0 {
		return nil, &api.Error{Code: api.ErrCodeBadRequest,
			Message: "envs and components are mutually exclusive"}
	}
	cr := &compiledRequest{a: a}
	for i, src := range req.Envs {
		sp, werr := s.resolveSource(fmt.Sprintf("envs[%d]", i), src)
		if werr != nil {
			return nil, werr
		}
		cr.envs = append(cr.envs, sp)
	}
	for i, src := range req.Components {
		sp, werr := s.resolveSource(fmt.Sprintf("components[%d]", i), src)
		if werr != nil {
			return nil, werr
		}
		cr.comps = append(cr.comps, sp)
	}
	maxStates := req.Options.MaxStates
	if s.cfg.MaxStatesCap > 0 && (maxStates == 0 || maxStates > s.cfg.MaxStatesCap) {
		maxStates = s.cfg.MaxStatesCap
	}
	cr.coreOpts = core.Options{
		OmitVacuous:        req.Options.OmitVacuous,
		SafetyOnly:         req.Options.SafetyOnly,
		MaxStates:          maxStates,
		MinimizeComponents: req.Options.MinimizeEnv,
	}
	cr.prune = req.Options.Prune
	cr.minimize = req.Options.Minimize

	cr.timeout = s.cfg.DefaultTimeout
	if req.Options.TimeoutMS > 0 {
		cr.timeout = time.Duration(req.Options.TimeoutMS) * time.Millisecond
	}
	if cr.timeout > s.cfg.MaxTimeout {
		cr.timeout = s.cfg.MaxTimeout
	}

	keyed := req.Options
	keyed.MaxStates = maxStates // key on the effective bound, not the asked one
	cr.key = api.CacheKey(a, cr.envs, cr.comps, keyed)
	return cr, nil
}

// executeDerivation runs the engine for one compiled request and returns
// either a cacheable artifact (converter, or definitive nonexistence) or a
// non-cacheable error. It is only ever called by a flight leader holding a
// pool slot.
func (s *Server) executeDerivation(cr *compiledRequest) flightResult {
	dctx, cancel := context.WithTimeout(s.baseCtx, cr.timeout)
	defer cancel()

	var res *core.Result
	var derr error
	switch {
	case len(cr.comps) > 0:
		x, err := compose.LazyMany(cr.comps...)
		if err != nil {
			return flightResult{err: &api.Error{Code: api.ErrCodeBadRequest, Message: err.Error()}}
		}
		res, derr = core.DeriveEnvContext(dctx, cr.a, x, cr.coreOpts)
	default:
		res, derr = core.DeriveRobustContext(dctx, cr.a, cr.envs, cr.coreOpts)
	}

	if derr != nil {
		var nq *core.NoQuotientError
		switch {
		case errors.As(derr, &nq):
			env := api.ResultEnvelope(cr.key, res, nil, derr)
			s.met.noQuotient.Add(1)
			return flightResult{entry: &api.Artifact{
				Key: cr.key, Exists: false, Stats: env.Stats, Error: env.Error,
			}}
		case errors.Is(derr, context.DeadlineExceeded):
			s.met.timeouts.Add(1)
			return flightResult{err: &api.Error{Code: api.ErrCodeDeadline,
				Message: fmt.Sprintf("derivation exceeded %v: %v", cr.timeout, derr)}}
		case errors.Is(derr, context.Canceled):
			return flightResult{err: &api.Error{Code: api.ErrCodeCanceled,
				Message: "derivation canceled by server shutdown"}}
		default:
			// Engine precondition failures (alphabet mismatches, MaxStates
			// exceeded, …) are the client's input, not server faults.
			return flightResult{err: &api.Error{Code: api.ErrCodeBadRequest, Message: derr.Error()}}
		}
	}

	conv := res.Converter
	if cr.prune && !cr.coreOpts.SafetyOnly {
		envs := cr.envs
		if len(cr.comps) > 0 {
			b, err := compose.Many(cr.comps...)
			if err != nil {
				return flightResult{err: &api.Error{Code: api.ErrCodeBadRequest, Message: err.Error()}}
			}
			envs = []*spec.Spec{b}
		}
		pruned, err := core.PruneRobust(cr.a, envs, conv)
		if err != nil {
			return flightResult{err: &api.Error{Code: api.ErrCodeInternal,
				Message: fmt.Sprintf("prune: %v", err)}}
		}
		conv = pruned
	}
	if cr.minimize {
		conv = conv.Minimize()
	}
	env := api.ResultEnvelope(cr.key, res, conv, nil)
	entry := &api.Artifact{
		Key: cr.key, Exists: true, Converter: env.Converter, Stats: env.Stats,
	}
	// Attach the compiled-table artifact class. Best-effort: every pruned or
	// quotient converter compiles, and an artifact without a table is still
	// complete (readers rebuild it from the converter).
	if table, err := convrt.CompileEncoded(conv); err == nil {
		entry.Table = string(table)
	}
	return flightResult{entry: entry}
}

// deriveFlight is the node-local engine path shared by client derivations
// and peer fills: singleflight around pool + engine. The caller has already
// missed the cache; successful (cacheable) outcomes are stored before being
// returned.
func (s *Server) deriveFlight(ctx context.Context, cr *compiledRequest) (e *api.Artifact, coalesced bool, werr *api.Error) {
	fr, joined, err := s.flights.do(ctx, cr.key, func() flightResult {
		// The queue wait draws down the same per-request budget the engine
		// runs under; the derivation itself re-derives its deadline from
		// baseCtx inside executeDerivation.
		actx, cancel := context.WithTimeout(s.baseCtx, cr.timeout)
		defer cancel()
		if err := s.pool.acquire(actx); err != nil {
			if errors.Is(err, errOverloaded) {
				s.met.rejected.Add(1)
				return flightResult{err: &api.Error{Code: api.ErrCodeQueueFull,
					Message: "derivation queue full; retry later"}}
			}
			s.met.timeouts.Add(1)
			return flightResult{err: &api.Error{Code: api.ErrCodeDeadline,
				Message: "timed out waiting for a derivation slot"}}
		}
		defer s.pool.release()
		s.met.derives.Add(1)
		if s.preDerive != nil {
			s.preDerive(cr.key)
		}
		fr := s.executeDerivation(cr)
		if fr.entry != nil {
			s.cache.Put(fr.entry)
		}
		return fr
	})
	if err != nil {
		// This request gave up waiting on someone else's flight; the flight
		// itself keeps running into the cache.
		return nil, true, &api.Error{Code: api.ErrCodeCanceled,
			Message: "request canceled while waiting for an identical in-flight derivation"}
	}
	if joined {
		s.met.coalesced.Add(1)
	}
	if fr.err != nil {
		var we *api.Error
		if !errors.As(fr.err, &we) {
			we = &api.Error{Code: api.ErrCodeInternal, Message: fr.err.Error()}
		}
		if we.Code == api.ErrCodeInternal {
			s.met.deriveErrors.Add(1)
		}
		return nil, joined, we
	}
	return fr.entry, joined, nil
}

func (s *Server) statsSnapshot() api.StatsResponse {
	hits, misses, evictions, diskHits, diskErrors := s.cache.Counters()
	queue, inflight := s.pool.depths()
	warm := s.met.warm.quantiles(50, 99)
	cold := s.met.cold.quantiles(50, 99)
	out := api.StatsResponse{
		UptimeMS: api.DurMS(time.Since(s.start)),
		Draining: s.draining.Load(),

		Requests:       s.met.requests.Load(),
		DeriveRequests: s.met.deriveRequests.Load(),
		Derives:        s.met.derives.Load(),
		DeriveErrors:   s.met.deriveErrors.Load(),
		NoQuotient:     s.met.noQuotient.Load(),
		Coalesced:      s.met.coalesced.Load(),
		Rejected:       s.met.rejected.Load(),
		Timeouts:       s.met.timeouts.Load(),

		CacheHits:       hits,
		CacheMisses:     misses,
		CacheEvictions:  evictions,
		CacheDiskHits:   diskHits,
		CacheDiskErrors: diskErrors,
		CacheEntries:    s.cache.Len(),

		QueueDepth:  queue,
		Inflight:    inflight,
		PoolWorkers: s.cfg.PoolWorkers,
		MaxQueue:    max(0, s.cfg.MaxQueue),

		SpecsRegistered: s.specCount(),

		WarmP50MS: warm[0],
		WarmP99MS: warm[1],
		ColdP50MS: cold[0],
		ColdP99MS: cold[1],
	}
	if cs := s.cluster.Load(); cs != nil {
		up, down := cs.mem.PeersUpDown()
		out.ClusterEnabled = true
		out.ClusterSelf = cs.mem.Self()
		out.ClusterPeersUp = up
		out.ClusterPeersDown = down
		out.PeerFills = s.met.peerFills.Load()
		out.PeerUnavailable = s.met.peerUnavailable.Load()
		out.PeerServed = s.met.peerServed.Load()
		out.HotReplicated = s.met.hotReplicated.Load()
	}
	return out
}
