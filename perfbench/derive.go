package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/specgen"
)

// deriveConfig is one derive workload: its inputs, derived in order once per
// pass through compose.LazyMany and core.DeriveEnvContext at the engine's
// defaults. The inputs are fixed instances, so the seed changes nothing.
type deriveConfig struct {
	Inputs []string `json:"inputs"`
}

// pin is the recorded answer for one derive input: the verdict, the safety
// and final sizes, and the content address of the converter.
type pin struct {
	Exists            bool   `json:"exists"`
	SafetyStates      int    `json:"safety_states"`
	SafetyTransitions int    `json:"safety_transitions"`
	FinalStates       int    `json:"final_states"`
	FinalTransitions  int    `json:"final_transitions"`
	Hash              string `json:"hash"`
}

//go:embed pins.json
var pinsJSON []byte

var pins = mustPins(pinsJSON)

func mustPins(data []byte) map[string]pin {
	var p map[string]pin
	if err := json.Unmarshal(data, &p); err != nil {
		panic("perfbench: pins.json: " + err.Error())
	}
	return p
}

func pinOf(res *core.Result) pin {
	st := res.Stats
	p := pin{Exists: res.Exists, SafetyStates: st.SafetyStates, SafetyTransitions: st.SafetyTransitions,
		FinalStates: st.FinalStates, FinalTransitions: st.FinalTransitions}
	if res.Converter != nil {
		p.Hash = res.Converter.Hash()
	}
	return p
}

// layerSums accumulates the per-layer figures of a set of derivations.
type layerSums map[string]float64

func runDerive(e *env, dc deriveConfig) (*outcome, error) {
	return deriveWith(e, dc, pins)
}

func deriveWith(e *env, dc deriveConfig, want map[string]pin) (*outcome, error) {
	out := newOutcome()
	var fams []specgen.Family
	setup, err := setupRepeated(func() error {
		fams = fams[:0]
		for _, name := range dc.Inputs {
			f, err := specgen.ParseFamily(name)
			if err != nil {
				return err
			}
			fams = append(fams, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// In a traced run, even passes are traced and odd passes are not; the
	// difference between the two is the tracing overhead.
	var plainSecs, tracedSecs, peaks []float64
	var traced []layerSums
	off := newTracer(false)
	minPasses := 1
	if e.tr.on {
		minPasses = 2
	}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < e.seconds; pass++ {
		tr, sums := off, layerSums(nil)
		if e.tr.on && pass%2 == 0 {
			tr, sums = e.tr, layerSums{}
		}
		var total float64
		var peak float64
		for _, f := range fams {
			d, rss, err := deriveOne(e, tr, f, pass, want, sums, out)
			if err != nil {
				return nil, err
			}
			total += d
			peak = max(peak, rss)
		}
		if sums != nil {
			tracedSecs = append(tracedSecs, total)
			traced = append(traced, sums)
		} else {
			plainSecs = append(plainSecs, total)
		}
		peaks = append(peaks, peak)
		e.logf("pass %d: %.3fs, peak %.0f MB", pass, total, peak)
	}

	out.e2e["setup_s"] = metric{setup.Seconds(), "s"}
	out.e2e["op_ms"] = metric{1e3 * median(plainSecs), "ms"}
	out.e2e["peak_rss_mb"] = metric{median(peaks), "MB"}
	if e.tr.on {
		med := layerSums{}
		for _, name := range deriveLayerNames {
			var xs []float64
			for _, s := range traced {
				xs = append(xs, s[name.name])
			}
			med[name.name] = median(xs)
		}
		putDeriveLayers(med, out)
		pt, pp := median(tracedSecs), median(plainSecs)
		out.layers["trace.overhead_pct"] = metric{100 * (pt - pp) / pp, "%"}
	}
	return out, nil
}

// deriveLayerNames lists the per-layer metrics of the derivation engine.
// Every workload derives, so every workload reports them, each summed over
// the derivations it makes: one pass over the inputs on derive-deep and
// derive-wide, the library's derivation of every distinct key on serve, and
// the two converters' derivations in set-up on run. Ratios are recomputed
// from the summed counts.
var deriveLayerNames = []struct{ name, unit string }{
	{"compose.expand_s", "s"},
	{"compose.states_expanded", "count"},
	{"compose.arena_mb", "MB"},
	{"core.safety_s", "s"},
	{"core.intern_hit_rate", "ratio"},
	{"core.pair_arena_mb", "MB"},
	{"core.closure_memo_hits", "count"},
	{"core.progress_s", "s"},
	{"core.progress_iterations", "count"},
	{"core.progress_scans", "count"},
	{"core.tau_hit_rate", "ratio"},
	{"core.unattributed_s", "s"},
	{"derive.alloc_mb", "MB"},
	{"derive.mallocs", "count"},
	{"derive.gc_cycles", "count"},
}

// deriveOne derives one input, checks it against its pin, and returns the
// derivation's wall time in seconds and the peak resident memory it reached.
// When sums is non-nil it also adds the input's per-layer figures to it.
func deriveOne(e *env, tr *tracer, f specgen.Family, pass int,
	want map[string]pin, sums layerSums, out *outcome) (float64, float64, error) {
	ctx, cancel := runCtx()
	defer cancel()
	if err := resetPeakRSS(); err != nil {
		return 0, 0, err
	}
	group := fmt.Sprintf("%s/pass%d", f.Name, pass)
	root := tr.begin(group, "derive", 0)
	t0 := time.Now()
	id := tr.begin(group, "compose.LazyMany", root)
	x, err := compose.LazyMany(f.Components...)
	tr.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", f.Name, err)
	}
	res, derr := traceDerive(e, tr, group, root, f.Name, "core.DeriveEnvContext", sums, out, func() (*core.Result, error) {
		return core.DeriveEnvContext(ctx, f.Service, x, core.Options{})
	})
	d := time.Since(t0)
	tr.end(root)

	rss, err := peakRSSMB()
	if err != nil {
		return 0, 0, err
	}
	out.attempted++
	if derr != nil {
		out.fail("%s: %v", f.Name, derr)
		return d.Seconds(), rss, nil
	}
	got := pinOf(res)
	if w, ok := want[f.Name]; !ok || got != w {
		line, _ := json.Marshal(got)
		out.fail("%s: derived %s, pinned %+v", f.Name, line, w)
	}
	return d.Seconds(), rss, nil
}

// traceDerive makes one derivation call into the engine, fn, inside a span
// named after it. When sums is non-nil it adds the derivation's per-layer figures
// to sums: the engine's own metrics, the MemStats deltas around the call,
// and core.unattributed_s, the part of the span that neither phase wall
// covers.
func traceDerive(e *env, tr *tracer, group string, parent int, name, fn string, sums layerSums,
	out *outcome, derive func() (*core.Result, error)) (*core.Result, error) {
	var m0, m1 runtime.MemStats
	if sums != nil {
		runtime.ReadMemStats(&m0)
	}
	id := tr.begin(group, fn, parent)
	res, err := derive()
	call := tr.end(id)
	if sums == nil || err != nil {
		return res, err
	}
	runtime.ReadMemStats(&m1)

	m := res.Stats.Metrics
	unattributed := call.dur() - m.SafetyWall - m.ProgressWall
	// The engine's phase walls are taken inside the span, so their sum can
	// exceed it only through a measurement bug.
	if unattributed < -time.Millisecond {
		out.problem("%s: safety %v + progress %v exceed the derivation span %v",
			name, m.SafetyWall, m.ProgressWall, call.dur())
	}
	e.logf("%s: derivation %.4fs = safety %.4fs + progress %.4fs + unattributed %.4fs",
		name, call.dur().Seconds(), m.SafetyWall.Seconds(), m.ProgressWall.Seconds(), unattributed.Seconds())

	const mb = 1 << 20
	sums["compose.expand_s"] += float64(m.EnvExpansionNs) / 1e9
	sums["compose.states_expanded"] += float64(m.EnvStatesExpanded)
	sums["compose.arena_mb"] += float64(m.ArenaBytes) / mb
	sums["core.safety_s"] += m.SafetyWall.Seconds()
	sums["core.pair_arena_mb"] += float64(m.PairArenaBytes) / mb
	sums["core.closure_memo_hits"] += float64(m.ClosureMemoHits)
	sums["core.progress_s"] += m.ProgressWall.Seconds()
	sums["core.progress_iterations"] += float64(res.Stats.ProgressIterations)
	sums["core.progress_scans"] += float64(m.ProgressScans)
	sums["core.unattributed_s"] += unattributed.Seconds()
	sums["derive.alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	sums["derive.mallocs"] += float64(m1.Mallocs - m0.Mallocs)
	sums["derive.gc_cycles"] += float64(m1.NumGC - m0.NumGC)
	sums["intern.hits"] += float64(m.InternHits)
	sums["intern.lookups"] += float64(m.InternLookups)
	sums["tau.hits"] += float64(m.TauCacheHits)
	sums["tau.rebuilds"] += float64(m.ReadySetRebuilds)
	sums["core.intern_hit_rate"] = ratio(sums["intern.hits"], sums["intern.lookups"])
	sums["core.tau_hit_rate"] = ratio(sums["tau.hits"], sums["tau.hits"]+sums["tau.rebuilds"])
	return res, nil
}

// putDeriveLayers copies the derivation figures in sums into the printed
// per-layer metrics.
func putDeriveLayers(sums layerSums, out *outcome) {
	for _, name := range deriveLayerNames {
		out.layers[name.name] = metric{sums[name.name], name.unit}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
