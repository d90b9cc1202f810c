package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/codegen"
	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/protosmith"
	"protoquot/internal/server"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// serveConfig is the serve workload: the traffic mix, the two offered rates
// and the bound on the load generator's own lateness.
type serveConfig struct {
	Mix mixConfig `json:"assumed_mix"`
	// RandMax bounds the generator seed of every rand/randwedge draw. A draw
	// is kept only when it is light: at most LightConverter converter states
	// and LightEnv composite environment states. Prune time grows steeply
	// with both, and a drawn key must stay light whatever the seed.
	RandMax        int     `json:"rand_max"`
	LightConverter int     `json:"light_converter"`
	LightEnv       int     `json:"light_env"`
	NominalRPS     float64 `json:"nominal_rps"`
	HighRPS        float64 `json:"high_rps"`
	// MaxLateMS bounds the p99 of how late the generator handed requests
	// over; a run beyond it measured the generator, not the server, and is
	// invalid.
	MaxLateMS float64 `json:"max_late_ms"`
}

// mixConfig is which keys the serve load asks for, and how often. All of it
// is assumed, not measured: there is no public record of derivation-service
// traffic to take it from. Zipf-skewed repeats and a share of never-seen
// keys are the shape; the exponent, the share, the prune split and the rank
// order are choices.
type mixConfig struct {
	// Keys is the fixed keyspace in Zipf rank order, hottest first. Each
	// entry is "<family> <options>", options "table" (include_table) or
	// "prune" (prune + include_table + include_go); the families "rand" and
	// "randwedge" are drawn from the seed. The ranks are fixed: the hottest
	// keys are fixed light instances and the heaviest come last, so that
	// the median and the tail fall on the same kinds of request whatever the
	// seed.
	Keys []string `json:"keys"`
	// ZipfS is the exponent: rank k (from 0) is drawn with weight (k+1)^-s.
	ZipfS float64 `json:"zipf_s"`
	// FreshShare is the share of arrivals that bring a never-seen key, a
	// seeded draw of rand or randwedge, with prune or table options, each at
	// even odds.
	FreshShare float64 `json:"fresh_share"`
}

// template is one distinct request: a family instance with its options,
// the JSON body sent, and the cache key the server must answer under.
type template struct {
	name string
	opts api.DeriveOptions
	body []byte
	key  string
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due   time.Duration // from the start of the timed load
	phase int           // 0 nominal rate, 1 high rate
	rank  int           // Zipf rank into the fixed keys; -1 for a fresh key
	tmpl  *template
}

// schedule draws the Poisson arrivals of both phases from the seed and
// returns them with the number of fresh keys they need.
func schedule(seed int64, sc serveConfig, phase time.Duration) ([]arrival, int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5ced))
	// Cumulative Zipf weights over the finite keyspace; unlike rand.Zipf,
	// this allows exponents of 1 and below.
	cdf := make([]float64, len(sc.Mix.Keys))
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -sc.Mix.ZipfS)
		cdf[k] = total
	}
	var out []arrival
	fresh := 0
	for p, rate := range []float64{sc.NominalRPS, sc.HighRPS} {
		base := time.Duration(p) * phase
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= phase {
				break
			}
			a := arrival{due: base + t, phase: p, rank: -1}
			if rng.Float64() < sc.Mix.FreshShare {
				fresh++
			} else {
				a.rank = min(sort.SearchFloat64s(cdf, rng.Float64()*total), len(cdf)-1)
			}
			out = append(out, a)
		}
	}
	return out, fresh
}

// keyspace builds the fixed templates in rank order and nFresh never-seen
// ones, all from the seed. Every template gets a distinct cache key.
func keyspace(seed int64, sc serveConfig, nFresh int) (fixed, fresh []*template, err error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6b657973))
	seen := map[string]bool{}
	add := func(t *template) bool {
		if seen[t.key] {
			return false
		}
		seen[t.key] = true
		return true
	}
	draw := func(kind, opts string) (*template, error) {
		// Most generated systems are light; a thousand misses in a row means
		// the engine no longer derives them.
		for try := 0; ; try++ {
			if try == 1000 {
				return nil, fmt.Errorf("no light %s system in %d draws", kind, try)
			}
			f, ok, err := drawSystem(kind, rng.Int63n(int64(sc.RandMax))+1, sc)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			t, err := newTemplate(f, opts)
			if err != nil {
				return nil, err
			}
			if add(t) {
				return t, nil
			}
		}
	}
	for _, k := range sc.Mix.Keys {
		famName, opts, ok := strings.Cut(k, " ")
		if !ok {
			return nil, nil, fmt.Errorf("key %q: want \"<family> <options>\"", k)
		}
		var t *template
		if famName == "rand" || famName == "randwedge" {
			t, err = draw(famName, opts)
		} else {
			var f specgen.Family
			if f, err = specgen.ParseFamily(famName); err == nil {
				t, err = newTemplate(f, opts)
			}
			if err == nil && !add(t) {
				err = fmt.Errorf("key %q listed twice", k)
			}
		}
		if err != nil {
			return nil, nil, err
		}
		fixed = append(fixed, t)
	}
	for i := 0; i < nFresh; i++ {
		kind, opts := "rand", "table"
		if rng.Intn(2) == 1 {
			kind = "randwedge"
		}
		if rng.Intn(2) == 1 {
			opts = "prune"
		}
		t, err := draw(kind, opts)
		if err != nil {
			return nil, nil, err
		}
		fresh = append(fresh, t)
	}
	return fixed, fresh, nil
}

// drawSystem generates the protosmith system of one seed with the knobs of
// the rand (wedges off) or randwedge (wedges likely) family kinds, and
// reports whether it is usable: valid, with a converter, and light. The
// derivation that decides it is bounded by MaxStates, because an unbounded
// one can grow without limit on an unlucky seed.
func drawSystem(kind string, seed int64, sc serveConfig) (specgen.Family, bool, error) {
	k := protosmith.DefaultKnobs()
	k.WedgeBias = 0
	if kind == "randwedge" {
		k.WedgeBias = 0.9
	}
	sys := protosmith.Generate(seed, k)
	if sys.Validate() != nil {
		return specgen.Family{}, false, nil
	}
	x, err := compose.LazyMany(sys.Components...)
	if err != nil {
		return specgen.Family{}, false, nil
	}
	ctx, cancel := runCtx()
	defer cancel()
	res, err := core.DeriveEnvContext(ctx, sys.Service, x, core.Options{MaxStates: 4 * sc.LightConverter})
	if err != nil || !res.Exists {
		return specgen.Family{}, false, nil
	}
	m := res.Stats
	light := m.FinalStates <= sc.LightConverter && m.Metrics.EnvStatesTotal <= sc.LightEnv
	return specgen.Family{Name: fmt.Sprintf("%s#%d", kind, seed), Service: sys.Service, Components: sys.Components}, light, nil
}

func newTemplate(f specgen.Family, opts string) (*template, error) {
	t := &template{name: f.Name + " " + opts}
	switch opts {
	case "table":
		t.opts = api.DeriveOptions{IncludeTable: true}
	case "prune":
		t.opts = api.DeriveOptions{Prune: true, IncludeTable: true, IncludeGo: true}
	default:
		return nil, fmt.Errorf("%s: unknown options %q (table or prune)", f.Name, opts)
	}
	req := api.DeriveRequest{Service: api.SpecSource{Inline: dsl.String(f.Service)}, Options: t.opts}
	for _, c := range f.Components {
		req.Components = append(req.Components, api.SpecSource{Inline: dsl.String(c)})
	}
	var err error
	if t.body, err = json.Marshal(req); err != nil {
		return nil, err
	}
	// The key the benchmark expects is computed from the request's own text,
	// exactly the inputs the server receives.
	a, comps, err := parseRequest(&req)
	if err != nil {
		return nil, err
	}
	t.key = api.CacheKey(a, nil, comps, t.opts)
	return t, nil
}

func parseRequest(req *api.DeriveRequest) (*spec.Spec, []*spec.Spec, error) {
	a, err := dsl.ParseString(req.Service.Inline)
	if err != nil {
		return nil, nil, err
	}
	var comps []*spec.Spec
	for _, c := range req.Components {
		s, err := dsl.ParseString(c.Inline)
		if err != nil {
			return nil, nil, err
		}
		comps = append(comps, s)
	}
	return a, comps, nil
}

// quotd is an in-process daemon on a loopback listener.
type quotd struct {
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan error
}

func startQuotd() (*quotd, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	q := &quotd{srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { q.done <- q.hs.Serve(ln) }()
	return q, nil
}

func (q *quotd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = q.hs.Shutdown(ctx) // a request still running after 10 s is cut by Abort below
	q.srv.Abort()
	<-q.done
}

// record is one request's timeline, as offsets from the load's start, and
// what came back.
type record struct {
	arrival
	enq, sent, done time.Duration
	status          int
	err             error
	elapsedMS       float64
	cached          bool
	code            string
}

// latency is the client-observed latency, timed from when the request was
// due. A failed request misses every latency limit.
func (r *record) latency() float64 {
	if r.err != nil || r.status != http.StatusOK {
		return math.Inf(1)
	}
	return ms(r.done - r.due)
}

// client sends requests over at most conns keep-alive connections.
type client struct {
	hc    *http.Client
	url   string
	conns int
}

func newClient(addr string) *client {
	conns := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		url: "http://" + addr + "/v1/derive", conns: conns}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response body.
func (c *client) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// checker verifies responses: each is 2xx, answers under the key the
// benchmark computed, and serves for its key exactly what the key's first
// response served. The first responses are compared with the library's own
// derivation after the load.
type checker struct {
	mu    sync.Mutex
	first map[*template]*api.DeriveResponse
	out   *outcome
}

func newChecker(out *outcome) *checker {
	return &checker{first: map[*template]*api.DeriveResponse{}, out: out}
}

func (ck *checker) check(r *record, body []byte) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.out.attempted++
	if r.err != nil {
		ck.out.fail("%s: %v", r.tmpl.name, r.err)
		return
	}
	var resp api.DeriveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		ck.out.fail("%s: HTTP %d, undecodable body: %v", r.tmpl.name, r.status, err)
		return
	}
	r.elapsedMS, r.cached = resp.ElapsedMS, resp.Cached
	if resp.Error != nil {
		r.code = resp.Error.Code
	}
	switch {
	case r.status != http.StatusOK:
		ck.out.fail("%s: HTTP %d %s", r.tmpl.name, r.status, r.code)
		return
	case resp.Key != r.tmpl.key:
		ck.out.fail("%s: served key %s, computed %s", r.tmpl.name, resp.Key, r.tmpl.key)
		return
	case !resp.Exists || resp.Converter == "" || resp.Table == "" || r.tmpl.opts.IncludeGo != (resp.GoSource != ""):
		ck.out.fail("%s: incomplete response (exists %t, converter %d B, table %d B, go %d B)",
			r.tmpl.name, resp.Exists, len(resp.Converter), len(resp.Table), len(resp.GoSource))
		return
	}
	f, ok := ck.first[r.tmpl]
	if !ok {
		ck.first[r.tmpl] = &resp
		return
	}
	if resp.Converter != f.Converter || resp.Table != f.Table || resp.GoSource != f.GoSource {
		ck.out.fail("%s: response differs from the key's first response", r.tmpl.name)
	}
}

// serveSetup is one set-up: keyspace, schedule, a fresh daemon, and its
// cache filled with the fixed keyspace.
type serveSetup struct {
	fixed, fresh []*template
	arrivals     []arrival
	q            *quotd
	cl           *client
	ck           *checker
}

func (ss *serveSetup) stop() {
	if ss.q != nil {
		ss.cl.close()
		ss.q.stop()
	}
}

func buildServe(e *env, sc serveConfig, out *outcome) (*serveSetup, error) {
	ss := &serveSetup{}
	arr, nFresh := schedule(e.seed, sc, e.seconds/2)
	var err error
	if ss.fixed, ss.fresh, err = keyspace(e.seed, sc, nFresh); err != nil {
		return nil, err
	}
	next := 0
	for i := range arr {
		if arr[i].rank < 0 {
			arr[i].tmpl = ss.fresh[next]
			next++
		} else {
			arr[i].tmpl = ss.fixed[arr[i].rank]
		}
	}
	ss.arrivals = arr

	if ss.q, err = startQuotd(); err != nil {
		return nil, err
	}
	ss.cl = newClient(ss.q.addr)
	ss.ck = newChecker(out)
	// Fill the cache: every fixed key once, over the client's connections.
	ctx, cancel := runCtx()
	defer cancel()
	work := make(chan *template, len(ss.fixed)) // sized to the sends: never blocks
	for _, t := range ss.fixed {
		work <- t
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < ss.cl.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range work {
				r := &record{arrival: arrival{tmpl: t}}
				var body []byte
				r.status, body, r.err = ss.cl.post(ctx, t.body)
				ss.ck.check(r, body)
			}
		}()
	}
	wg.Wait()
	return ss, nil
}

func runServe(e *env) (*outcome, error) { return serveWith(e, cfg.Serve) }

func serveWith(e *env, sc serveConfig) (*outcome, error) {
	out := newOutcome()
	var ss *serveSetup
	defer func() {
		if ss != nil {
			ss.stop()
		}
	}()
	setup, err := setupRepeated(func() error {
		if ss != nil {
			ss.stop()
		}
		var err error
		ss, err = buildServe(e, sc, out)
		return err
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := runCtx()
	defer cancel()
	stats0, err := api.NewClient(ss.q.addr).Stats(ctx)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	recs := load(ctx, e, ss)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	stats1, err := api.NewClient(ss.q.addr).Stats(ctx)
	if err != nil {
		return nil, err
	}

	// Latency, per phase, from each request's due time.
	var late []float64
	var lat [2][]float64
	for i := range recs {
		r := &recs[i]
		lat[r.phase] = append(lat[r.phase], r.latency())
		late = append(late, ms(r.enq-r.due))
	}
	n := [2]int{len(lat[0]), len(lat[1])}
	p50, p99, p99hi := quantile(lat[0], 0.5), quantile(lat[0], 0.99), quantile(lat[1], 0.99)
	e.logf("nominal %.0f/s: %d samples, p50 %.3f ms, p99 %.3f ms; high %.0f/s: %d samples, p99 %.3f ms; generator late p99 %.3f ms",
		sc.NominalRPS, n[0], p50, p99, sc.HighRPS, n[1], p99hi, quantile(late, 0.99))
	if l := quantile(late, 0.99); l > sc.MaxLateMS {
		out.problem("invalid run: the generator handed requests over %.1f ms late at p99 (bound %.0f ms)", l, sc.MaxLateMS)
	}
	out.e2e["setup_s"] = metric{setup.Seconds(), "s"}
	out.e2e["peak_rss_mb"] = metric{rss, "MB"}
	out.e2e["op_ms"] = metric{p50, "ms"}
	// The tails swing by more than any admissible bound from run to run on a
	// shared two-vCPU virtual machine, so they are reported with the
	// workload's own figures, where no bound applies.
	out.detail["req_p99_ms"] = metric{p99, "ms"}
	out.detail["req_p99_ms_hi"] = metric{p99hi, "ms"}

	// Every distinct key is derived exactly once, then served from cache.
	distinct := map[string]bool{}
	for t := range ss.ck.first {
		distinct[t.key] = true
	}
	if int(stats1.Derives) != len(distinct) {
		out.problem("server derived %d times for %d distinct keys", stats1.Derives, len(distinct))
	}
	var sums layerSums
	if e.tr.on {
		sums = layerSums{}
	}
	verifyServed(e, ss.ck, sums, out)
	if e.tr.on {
		putDeriveLayers(sums, out)
		serveLayers(e, ss, recs, stats0, stats1, out)
	}
	return out, nil
}

// load runs the timed open loop: a generator hands each arrival over at its
// due time, whatever the server is doing, to workers that own one
// connection each; a checker decodes and verifies the responses off the
// connections' path.
func load(ctx context.Context, e *env, ss *serveSetup) []record {
	recs := make([]record, len(ss.arrivals))
	// Both channels are sized to the number of requests, so neither the
	// generator nor a worker ever waits to hand a request on: a stalled
	// server shows as latency, not as a late generator.
	queue := make(chan int, len(recs))
	checks := make(chan checkItem, len(recs))
	var wg, ckwg sync.WaitGroup
	ckwg.Add(1)
	go func() {
		defer ckwg.Done()
		for it := range checks {
			ss.ck.check(&recs[it.i], it.body)
		}
	}()
	t0 := time.Now()
	for w := 0; w < ss.cl.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &recs[i]
				traced := e.tr.on && i%2 == 0
				var id int
				if traced {
					id = e.tr.begin(fmt.Sprintf("req%d", i), "http.POST /v1/derive", 0)
				}
				r.sent = time.Since(t0)
				var body []byte
				r.status, body, r.err = ss.cl.post(ctx, r.tmpl.body)
				r.done = time.Since(t0)
				if traced {
					e.tr.end(id)
				}
				checks <- checkItem{i, body}
			}
		}()
	}
	for i, a := range ss.arrivals {
		if d := a.due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		recs[i].arrival = a
		recs[i].enq = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	close(checks)
	ckwg.Wait()
	return recs
}

type checkItem struct {
	i    int
	body []byte
}

// reference is what the library derives for a template, mirroring the
// daemon's pipeline: lazy composition and derivation at the defaults, then
// for prune keys a composed environment, PruneRobust and the Go rendering.
// When sums is non-nil the derivation's per-layer figures are added to it.
func reference(e *env, t *template, sums layerSums, out *outcome) (conv, table, goSrc string, err error) {
	tr := e.tr
	req := api.DeriveRequest{}
	if err := json.Unmarshal(t.body, &req); err != nil {
		return "", "", "", err
	}
	a, comps, err := parseRequest(&req)
	if err != nil {
		return "", "", "", err
	}
	g := t.key[:12]
	ctx, cancel := runCtx()
	defer cancel()
	id := tr.begin(g, "compose.LazyMany", 0)
	x, err := compose.LazyMany(comps...)
	tr.end(id)
	if err != nil {
		return "", "", "", err
	}
	res, err := traceDerive(e, tr, g, 0, t.name, "core.DeriveEnvContext", sums, out, func() (*core.Result, error) {
		return core.DeriveEnvContext(ctx, a, x, core.Options{Workers: 1})
	})
	if err != nil {
		return "", "", "", err
	}
	c := res.Converter
	if t.opts.Prune {
		id = tr.begin(g, "compose.Many", 0)
		b, err := compose.Many(comps...)
		tr.end(id)
		if err != nil {
			return "", "", "", err
		}
		id = tr.begin(g, "core.PruneRobust", 0)
		c, err = core.PruneRobust(a, []*spec.Spec{b}, c)
		tr.end(id)
		if err != nil {
			return "", "", "", err
		}
	}
	conv = dsl.String(c)
	id = tr.begin(g, "convrt.CompileEncoded", 0)
	tb, err := convrt.CompileEncoded(c)
	tr.end(id)
	if err != nil {
		return "", "", "", err
	}
	if t.opts.IncludeGo {
		parsed, err := dsl.ParseString(conv)
		if err != nil {
			return "", "", "", err
		}
		id = tr.begin(g, "codegen.Generate", 0)
		src, err := codegen.Generate(parsed, codegen.Config{Package: "converter"})
		tr.end(id)
		if err != nil {
			return "", "", "", err
		}
		goSrc = string(src)
	}
	return conv, string(tb), goSrc, nil
}

// verifyServed compares each key's served artifact with the library's.
func verifyServed(e *env, ck *checker, sums layerSums, out *outcome) {
	for t, resp := range ck.first {
		conv, table, goSrc, err := reference(e, t, sums, out)
		switch {
		case err != nil:
			out.fail("%s: library derivation: %v", t.name, err)
		case resp.Converter != conv:
			out.fail("%s: served converter differs from the library's derivation", t.name)
		case resp.Table != table:
			out.fail("%s: served table differs from the library's compiled table", t.name)
		case resp.GoSource != goSrc:
			out.fail("%s: served Go source differs from the library's rendering", t.name)
		}
	}
}

// serveLayers derives the serve workload's own figures from the records,
// the daemon's stats and the spans, and replays every request's parse,
// cache-key and encode steps through the same public functions.
func serveLayers(e *env, ss *serveSetup, recs []record, s0, s1 *api.StatsResponse, out *outcome) {
	var warm, cold, overhead, wait, late, plain, traced []float64
	rejected, n := 0, [2]float64{}
	for i := range recs {
		r := &recs[i]
		n[r.phase]++
		if r.code == api.ErrCodeQueueFull {
			rejected++
		}
		if r.cached {
			warm = append(warm, r.elapsedMS)
		} else {
			cold = append(cold, r.elapsedMS)
		}
		overhead = append(overhead, ms(r.done-r.sent)-r.elapsedMS)
		wait = append(wait, ms(r.sent-r.due))
		late = append(late, ms(r.enq-r.due))
		if r.phase == 0 {
			if i%2 == 0 {
				traced = append(traced, r.latency())
			} else {
				plain = append(plain, r.latency())
			}
		}
	}
	hits, misses := s1.CacheHits-s0.CacheHits, s1.CacheMisses-s0.CacheMisses
	L := out.detail
	L["server.hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	L["server.derives"] = metric{float64(s1.Derives), "count"}
	L["server.coalesced"] = metric{float64(s1.Coalesced - s0.Coalesced), "count"}
	L["server.rejected"] = metric{ratio(float64(rejected), float64(len(recs))), "ratio"}
	L["server.warm_p50_ms"] = metric{quantile(warm, 0.5), "ms"}
	L["server.cold_p99_ms"] = metric{quantile(cold, 0.99), "ms"}
	L["http.overhead_p50_ms"] = metric{quantile(overhead, 0.5), "ms"}
	L["client.wait_p99_ms"] = metric{quantile(wait, 0.99), "ms"}
	L["client.late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
	L["client.samples_nominal"] = metric{n[0], "count"}
	L["client.samples_high"] = metric{n[1], "count"}
	pt, pp := median(traced), median(plain)
	out.layers["trace.overhead_pct"] = metric{100 * (pt - pp) / pp, "%"}

	// Replay: the request-path steps the daemon runs on every request.
	for i := range recs {
		r := &recs[i]
		g := fmt.Sprintf("req%d", i)
		var req api.DeriveRequest
		if err := json.Unmarshal(r.tmpl.body, &req); err != nil {
			out.problem("replay %s: %v", r.tmpl.name, err)
			return
		}
		id := e.tr.begin(g, "dsl.ParseString", 0)
		a, comps, err := parseRequest(&req)
		e.tr.end(id)
		if err != nil {
			out.problem("replay %s: %v", r.tmpl.name, err)
			return
		}
		id = e.tr.begin(g, "api.CacheKey", 0)
		key := api.CacheKey(a, nil, comps, req.Options)
		e.tr.end(id)
		if key != r.tmpl.key {
			out.problem("replay %s: cache key changed", r.tmpl.name)
		}
		resp := *ss.ck.first[r.tmpl]
		resp.RequestID, resp.ElapsedMS, resp.Cached = fmt.Sprintf("r%06d", i), r.elapsedMS, r.cached
		id = e.tr.begin(g, "json.Marshal", 0)
		_, err = json.Marshal(&resp)
		e.tr.end(id)
		if err != nil {
			out.problem("replay %s: %v", r.tmpl.name, err)
		}
	}
	us := func(name string) float64 { return median(e.tr.durations(name)) / 1e3 }
	msMean := func(name string) float64 { return mean(e.tr.durations(name)) / 1e6 }
	L["dsl.parse_us"] = metric{us("dsl.ParseString"), "us"}
	L["api.cachekey_us"] = metric{us("api.CacheKey"), "us"}
	L["api.encode_us"] = metric{us("json.Marshal"), "us"}
	L["core.derive_ms"] = metric{msMean("core.DeriveEnvContext"), "ms"}
	L["compose.many_ms"] = metric{msMean("compose.Many"), "ms"}
	L["core.prune_ms"] = metric{msMean("core.PruneRobust"), "ms"}
	L["render.table_us"] = metric{mean(e.tr.durations("convrt.CompileEncoded")) / 1e3, "us"}
	L["render.go_us"] = metric{mean(e.tr.durations("codegen.Generate")) / 1e3, "us"}
}
