package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/protocols"
	rt "protoquot/internal/runtime"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// runConfig is the run workload: the session shape, the fault schedule and
// the size of the replayed walk the per-step costs are timed over.
type runConfig struct {
	Faults       string `json:"faults"`
	ConformEvery int    `json:"conform_every"`
	Sessions     int    `json:"sessions"`
	Steps        int    `json:"steps_per_session"`
	// ReplaySteps and ReplayBatch size the walk replayed through Table.Step
	// and TraceTracker.Step: one clock read per batch, never per step.
	ReplaySteps int `json:"replay_steps"`
	ReplayBatch int `json:"replay_batch"`
}

// converter is one compiled converter under load and its reference.
type converter struct {
	name  string
	table *convrt.Table
	ref   *spec.Spec
}

// paperConverter is the paper's Figure 14 converter: AB sender to NS
// receiver, colocated, derived and pruned. When sums is non-nil the
// derivation's per-layer figures are added to it.
func paperConverter(e *env, sums layerSums, out *outcome) (*spec.Spec, error) {
	b := protocols.ColocatedB()
	res, err := traceDerive(e, e.tr, "setup/paper", 0, "paper", "core.Derive", sums, out, func() (*core.Result, error) {
		return core.Derive(protocols.Service(), b, core.Options{OmitVacuous: true})
	})
	if err != nil {
		return nil, err
	}
	return core.Prune(protocols.Service(), b, res.Converter)
}

// maximalConverter is a family instance's maximal converter, derived lazily
// at the engine's defaults. When sums is non-nil the derivation's per-layer
// figures are added to it.
func maximalConverter(e *env, name string, sums layerSums, out *outcome) (*spec.Spec, error) {
	f, err := specgen.ParseFamily(name)
	if err != nil {
		return nil, err
	}
	x, err := compose.LazyMany(f.Components...)
	if err != nil {
		return nil, err
	}
	ctx, cancel := runCtx()
	defer cancel()
	res, err := traceDerive(e, e.tr, "setup/"+name, 0, name, "core.DeriveEnvContext", sums, out, func() (*core.Result, error) {
		return core.DeriveEnvContext(ctx, f.Service, x, core.Options{})
	})
	if err != nil {
		return nil, err
	}
	return res.Converter, nil
}

func buildConverters(e *env, sums layerSums, out *outcome) ([]converter, error) {
	paper, err := paperConverter(e, sums, out)
	if err != nil {
		return nil, fmt.Errorf("paper converter: %w", err)
	}
	ring, err := maximalConverter(e, "ring(6)", sums, out)
	if err != nil {
		return nil, fmt.Errorf("ring(6): %w", err)
	}
	var convs []converter
	for _, c := range []struct {
		name string
		s    *spec.Spec
	}{{"paper", paper}, {"ring6", ring}} {
		t, err := convrt.Compile(c.s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		convs = append(convs, converter{c.name, t, c.s})
	}
	return convs, nil
}

func runConverters(e *env) (*outcome, error) {
	out := newOutcome()
	var convs []converter
	var sums layerSums
	setup, err := setupRepeated(func() error {
		// In a traced run the last set-up's derivations are the ones reported.
		if e.tr.on {
			sums = layerSums{}
		}
		var err error
		convs, err = buildConverters(e, sums, out)
		return err
	})
	if err != nil {
		return nil, err
	}
	return runWith(e, cfg.Run, convs, setup, sums, out)
}

// runStats is one converter's figures from one traced round.
type runStats struct {
	offers, stale, allocs, waitUs, unchecked float64
}

// runWith runs the timed rounds on convs. sums holds the per-layer figures
// of the derivations that made convs, reported when the run is traced.
func runWith(e *env, rc runConfig, convs []converter, setup time.Duration, sums layerSums, out *outcome) (*outcome, error) {
	faults, err := rt.ParseFaults(rc.Faults)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	// Each round runs every converter once; in a traced run, even rounds are
	// traced and odd ones are not.
	var plain, traced, roundMs []float64
	per := map[string][]runStats{}
	start := time.Now()
	minRounds := 1
	if e.tr.on {
		minRounds = 2
	}
	for round := 0; round < minRounds || time.Since(start) < e.seconds; round++ {
		isTraced := e.tr.on && round%2 == 0
		var steps int64
		var elapsed time.Duration
		for ci, c := range convs {
			cfg := convrt.Config{
				Table: c.table, Reference: c.ref, Sessions: rc.Sessions, StepsPerSession: rc.Steps,
				Faults: faults, Seed: e.seed*1000 + int64(round*len(convs)+ci), ConformEvery: rc.ConformEvery,
			}
			rep, st, err := runOnce(e, cfg, isTraced, fmt.Sprintf("round%d/%s", round, c.name))
			if err != nil {
				return nil, err
			}
			checkReport(c.name, rep, cfg, out)
			steps += rep.Steps
			elapsed += rep.Elapsed
			if isTraced {
				cfg.Reference = nil
				un, _, err := runOnce(e, cfg, false, "")
				if err != nil {
					return nil, err
				}
				st.unchecked = un.MsgsPerSec
				per[c.name] = append(per[c.name], st)
			}
		}
		rate := float64(steps) / elapsed.Seconds()
		if isTraced {
			traced = append(traced, rate)
		} else {
			plain = append(plain, rate)
			roundMs = append(roundMs, ms(elapsed))
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.logf("%d rounds, %.0f msgs/s median", len(plain)+len(traced), median(plain))
	out.e2e["setup_s"] = metric{setup.Seconds(), "s"}
	out.e2e["peak_rss_mb"] = metric{rss, "MB"}
	out.e2e["op_ms"] = metric{median(roundMs), "ms"}
	out.detail["msgs_per_s"] = metric{median(plain), "1/s"}
	if !e.tr.on {
		return out, nil
	}
	putDeriveLayers(sums, out)
	L := out.detail
	for _, c := range convs {
		sts := per[c.name]
		pick := func(f func(runStats) float64) float64 {
			var xs []float64
			for _, s := range sts {
				xs = append(xs, f(s))
			}
			return median(xs)
		}
		sfx := "." + c.name
		L["convrt.offers_per_step"+sfx] = metric{pick(func(s runStats) float64 { return s.offers }), "ratio"}
		L["convrt.stale_frac"+sfx] = metric{pick(func(s runStats) float64 { return s.stale }), "ratio"}
		L["convrt.allocs_per_step"+sfx] = metric{pick(func(s runStats) float64 { return s.allocs }), "count"}
		L["convrt.queue_wait_p99_us"+sfx] = metric{pick(func(s runStats) float64 { return s.waitUs }), "us"}
		L["convrt.unchecked_msgs_per_s"+sfx] = metric{pick(func(s runStats) float64 { return s.unchecked }), "1/s"}
		tbl, trk, audit := replay(e, c, rc, out)
		L["convrt.table_step_ns"+sfx] = metric{tbl, "ns"}
		L["spec.tracker_step_ns"+sfx] = metric{trk, "ns"}
		L["convrt.audit_ns"+sfx] = metric{audit, "ns"}
	}
	pt, pp := median(traced), median(plain)
	// Throughput: a traced round that runs slower has positive overhead.
	out.layers["trace.overhead_pct"] = metric{100 * (pp - pt) / pp, "%"}
	return out, nil
}

// runOnce runs one session batch and, when traced, records its span and the
// batch's counters.
func runOnce(e *env, cfg convrt.Config, traced bool, group string) (*convrt.Report, runStats, error) {
	ctx, cancel := runCtx()
	defer cancel()
	r, err := convrt.NewRunner(cfg)
	if err != nil {
		return nil, runStats{}, err
	}
	var m0, m1 runtime.MemStats
	var id int
	if traced {
		runtime.ReadMemStats(&m0)
		id = e.tr.begin(group, "convrt.Runner.Run", 0)
	}
	rep, err := r.Run(ctx)
	if rep == nil {
		return nil, runStats{}, err
	}
	if err != nil {
		rep.Canceled = max(rep.Canceled, 1) // counted as failed by checkReport
	}
	var st runStats
	if traced {
		e.tr.end(id)
		runtime.ReadMemStats(&m1)
		st = runStats{
			offers: ratio(float64(rep.Proposed), float64(rep.Steps)),
			stale:  ratio(float64(rep.Stale), float64(rep.Proposed)),
			allocs: ratio(float64(m1.Mallocs-m0.Mallocs), float64(rep.Steps)),
			waitUs: float64(rep.P99StepNs) / 1e3,
		}
	}
	return rep, st, nil
}

// checkReport fails every session that did not complete cleanly.
func checkReport(name string, rep *convrt.Report, cfg convrt.Config, out *outcome) {
	out.attempted += rep.Sessions
	bad := int(rep.SessionsFailed + rep.Canceled)
	if bad == 0 && rep.Violations == 0 && rep.SessionsCompleted == int64(cfg.Sessions) {
		return
	}
	out.failed += max(bad, 1)
	detail := ""
	if len(rep.ViolationDetails) > 0 {
		v := rep.ViolationDetails[0]
		detail = fmt.Sprintf("; first: session %d %s at %s after %d steps", v.Session, v.Kind, v.State, v.Steps)
	}
	out.problem("%s: %d/%d sessions completed, %d failed, %d canceled, %d violations%s",
		name, rep.SessionsCompleted, cfg.Sessions, rep.SessionsFailed, rep.Canceled, rep.Violations, detail)
}

// walk is a seeded random walk over a table's transitions; -1 marks a
// return to the initial state after a state with nothing enabled.
func walk(t *convrt.Table, seed int64, n int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, 0, n)
	st := t.Init()
	for len(out) < n {
		en := t.Enabled(st)
		if len(en) == 0 {
			out = append(out, -1)
			st = t.Init()
			continue
		}
		ev := en[rng.Intn(len(en))]
		out = append(out, ev)
		st, _ = t.Step(st, ev)
	}
	return out
}

// replay times Table.Step, TraceTracker.Step and the enabled-set audit over
// one seeded walk, one clock read per batch, and returns the median ns per
// step of each. The audit's cost is what a step with an audit adds to a
// table step plus a tracker step.
func replay(e *env, c converter, rc runConfig, out *outcome) (tableNs, trackerNs, auditNs float64) {
	w := walk(c.table, e.seed, rc.ReplaySteps)
	group := "replay/" + c.name
	var sink int32
	perStep := func(name string, body func(batch []int32)) float64 {
		var xs []float64
		id := e.tr.begin(group, name, 0)
		for lo := 0; lo < len(w); lo += rc.ReplayBatch {
			b := w[lo:min(lo+rc.ReplayBatch, len(w))]
			t0 := time.Now()
			body(b)
			xs = append(xs, float64(time.Since(t0))/float64(len(b)))
		}
		e.tr.end(id)
		return median(xs)
	}
	st := c.table.Init()
	tableNs = perStep("convrt.Table.Step", func(b []int32) {
		for _, ev := range b {
			if ev < 0 {
				st = c.table.Init()
				continue
			}
			st, _ = c.table.Step(st, ev)
		}
		sink += st
	})
	tk := c.ref.Track()
	ok := true
	trackerNs = perStep("spec.TraceTracker.Step", func(b []int32) {
		for _, ev := range b {
			if ev < 0 {
				tk.Reset()
				continue
			}
			ok = tk.Step(c.table.EventName(ev)) && ok
		}
	})
	st, mismatches := c.table.Init(), 0
	tk.Reset()
	both := perStep("audit", func(b []int32) {
		for _, ev := range b {
			if ev < 0 {
				st = c.table.Init()
				tk.Reset()
				continue
			}
			st, _ = c.table.Step(st, ev)
			tk.Step(c.table.EventName(ev))
			want, got := tk.Enabled(), c.table.Enabled(st)
			same := len(want) == len(got)
			for i := 0; same && i < len(got); i++ {
				same = c.table.EventName(got[i]) == want[i]
			}
			if !same {
				mismatches++
			}
		}
	})
	if !ok || mismatches > 0 {
		out.problem("%s: replayed walk left the reference (tracker accepted all: %t, audit mismatches %d)", c.name, ok, mismatches)
	}
	runtime.KeepAlive(sink)
	return tableNs, trackerNs, both - tableNs - trackerNs
}
