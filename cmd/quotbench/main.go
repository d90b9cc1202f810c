// Command quotbench measures the derivation pipeline — composition,
// safety phase, progress phase — on the deterministic specgen scaling
// families and emits machine-readable JSON, so perf changes to the engine
// leave a committed trajectory (BENCH_pr3.json) instead of anecdotes.
//
// Usage:
//
//	quotbench [-label name] [-families list] [-reps n]
//	          [-engine spec] [-out file] [-append]
//
// Families are named like "chain(5)", "chaindrop(4)", "ring(3)",
// comma-separated. Times are the minimum over -reps repetitions (the
// standard way to suppress scheduler noise); allocation figures come from
// a dedicated instrumented repetition. With -append, the output file's
// existing runs are kept and the new ones added — this is how a
// before/after engine comparison accumulates into one file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	_ "protoquot/internal/protosmith" // registers the rand/randwedge family kinds
	"protoquot/internal/specgen"
)

// Run is one measured (family, engine) configuration.
type Run struct {
	Label  string `json:"label"`
	Family string `json:"family"`
	Engine string `json:"engine"`
	Reps   int    `json:"reps"`

	ComposeNs  int64 `json:"compose_ns"`
	DeriveNs   int64 `json:"derive_ns"`
	SafetyNs   int64 `json:"safety_ns"`
	ProgressNs int64 `json:"progress_ns"`
	EmitNs     int64 `json:"emit_ns,omitempty"`
	TotalNs    int64 `json:"total_ns"`

	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`

	BStates       int `json:"b_states"`
	SafetyStates  int `json:"safety_states"`
	FinalStates   int `json:"final_states"`
	ProgressIters int `json:"progress_iterations"`
	RemovedStates int `json:"removed_states"`

	TauCacheHits     int `json:"tau_cache_hits,omitempty"`
	TauInvalidated   int `json:"tau_invalidated,omitempty"`
	ReadySetRebuilds int `json:"ready_set_rebuilds,omitempty"`

	// Environment-exploration accounting (see core.Metrics). For the lazy
	// engine ExpandedStates « BStates is the reachable-slice win; for eager
	// engines both equal BStates.
	EnvStatesExpanded int   `json:"env_states_expanded,omitempty"`
	EnvStatesTotal    int   `json:"env_states_total,omitempty"`
	EnvExpansionNs    int64 `json:"env_expansion_ns,omitempty"`

	// Arena/row accounting for the demand-driven engine (zero for eager
	// engines).
	ArenaBytes   int64 `json:"arena_bytes,omitempty"`
	PeakRowBytes int64 `json:"peak_row_bytes,omitempty"`

	// Safety-phase storage and memoization accounting (see core.Metrics):
	// intern-table + closure-memo + successor-row arena bytes, and closures
	// skipped via the seed-set memo.
	PairArenaBytes  int64 `json:"pair_arena_bytes,omitempty"`
	ClosureMemoHits int   `json:"closure_memo_hits,omitempty"`

	// PeakRSSBytes is the process's high-water resident set after the run
	// (getrusage ru_maxrss) — a whole-process figure, monotone across runs
	// in one quotbench invocation, so within a file compare it per family
	// in invocation order.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`

	// TimedOut marks a run whose derivation hit -derivetimeout; its times
	// cover only the work done before cancellation.
	TimedOut bool `json:"timed_out,omitempty"`
}

// Output is the committed JSON document.
type Output struct {
	Note string `json:"note"`
	Runs []Run  `json:"runs"`
}

// measurement is one repetition's outcome.
type measurement struct {
	composeNs, deriveNs, safetyNs, progressNs, emitNs int64
	bStates                                           int
	stats                                             core.Stats
	timedOut                                          bool
}

// runOnce executes one compose+derive repetition with the chosen engine.
// A derivation that exceeds timeout (0 = unlimited) is reported with
// timedOut set and whatever time it burned; the caller decides whether to
// keep going.
func runOnce(f specgen.Family, engine string, timeout time.Duration) (measurement, error) {
	var m measurement
	opts := core.Options{OmitVacuous: true}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	derive := func(b core.Environment) error {
		t0 := time.Now()
		res, err := core.DeriveEnvContext(ctx, f.Service, b, opts)
		m.deriveNs = time.Since(t0).Nanoseconds()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				m.timedOut = true
				return nil
			}
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		m.stats = res.Stats
		return nil
	}
	switch engine {
	case "spec":
		t0 := time.Now()
		b, err := compose.Many(f.Components...)
		if err != nil {
			return m, err
		}
		m.composeNs = time.Since(t0).Nanoseconds()
		m.bStates = b.NumStates()
		if err := derive(b); err != nil {
			return m, err
		}
	case "lazy":
		t0 := time.Now()
		b, err := compose.LazyMany(f.Components...)
		if err != nil {
			return m, err
		}
		m.composeNs = time.Since(t0).Nanoseconds() // table compilation only
		if err := derive(b); err != nil {
			return m, err
		}
		m.bStates = b.NumStates() // states discovered by the derivation
	default:
		return m, fmt.Errorf("unknown engine %q (spec or lazy)", engine)
	}
	m.safetyNs = m.stats.Metrics.SafetyWall.Nanoseconds()
	m.progressNs = m.stats.Metrics.ProgressWall.Nanoseconds()
	m.emitNs = m.stats.Metrics.EmitWall.Nanoseconds()
	return m, nil
}

func main() {
	var (
		label    = flag.String("label", "dev", "label identifying the engine build, e.g. pr3 or pr4")
		families = flag.String("families", "chain(4),chain(5),chaindrop(4),ring(3)", "comma-separated family instances (see specgen.BenchFamilies)")
		reps     = flag.Int("reps", 3, "repetitions per configuration (minimum is reported)")
		engines  = flag.String("engine", "spec", "comma-separated engines: spec (string compose + Derive), lazy (demand-driven compose fused into the safety phase)")
		timeout  = flag.Duration("derivetimeout", 0, "per-derivation wall-clock cap (0 = unlimited); a capped run is recorded with timed_out=true")
		out      = flag.String("out", "", "output JSON file (default stdout)")
		appendTo = flag.Bool("append", false, "keep existing runs in -out and append")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile covering every measured repetition")
	)
	flag.Parse()
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quotbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "quotbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(*label, *families, *engines, *reps, *timeout, *out, *appendTo); err != nil {
		fmt.Fprintf(os.Stderr, "quotbench: %v\n", err)
		os.Exit(1)
	}
}

func run(label, families, engines string, reps int, timeout time.Duration, out string, appendTo bool) error {
	doc := Output{Note: "protoquot derivation-pipeline benchmarks over specgen families; times are min-of-reps nanoseconds, allocations from one instrumented rep"}
	if appendTo && out != "" {
		if data, err := os.ReadFile(out); err == nil {
			if err := json.Unmarshal(data, &doc); err != nil {
				return fmt.Errorf("existing %s: %w", out, err)
			}
		}
	}
	for _, fname := range strings.Split(families, ",") {
		f, err := specgen.ParseFamily(fname)
		if err != nil {
			return err
		}
		for _, engine := range strings.Split(engines, ",") {
			engine = strings.TrimSpace(engine)
			r := Run{Label: label, Family: f.Name, Engine: engine, Reps: reps}
			for i := 0; i < reps; i++ {
				m, err := runOnce(f, engine, timeout)
				if err != nil {
					return err
				}
				if m.timedOut {
					// Record the capped attempt and move on; repeating a
					// run that hits the wall just burns the budget again.
					r.TimedOut = true
					r.TotalNs = m.composeNs + m.deriveNs
					r.ComposeNs, r.DeriveNs = m.composeNs, m.deriveNs
					r.BStates = m.bStates
					break
				}
				total := m.composeNs + m.deriveNs
				if i == 0 || total < r.TotalNs {
					r.TotalNs = total
					r.ComposeNs, r.DeriveNs = m.composeNs, m.deriveNs
					r.SafetyNs, r.ProgressNs, r.EmitNs = m.safetyNs, m.progressNs, m.emitNs
				}
				r.BStates = m.bStates
				r.SafetyStates = m.stats.SafetyStates
				r.FinalStates = m.stats.FinalStates
				r.ProgressIters = m.stats.ProgressIterations
				r.RemovedStates = m.stats.RemovedStates
				r.TauCacheHits = m.stats.Metrics.TauCacheHits
				r.TauInvalidated = m.stats.Metrics.TauInvalidated
				r.ReadySetRebuilds = m.stats.Metrics.ReadySetRebuilds
				r.EnvStatesExpanded = m.stats.Metrics.EnvStatesExpanded
				r.EnvStatesTotal = m.stats.Metrics.EnvStatesTotal
				r.EnvExpansionNs = m.stats.Metrics.EnvExpansionNs
				r.ArenaBytes = m.stats.Metrics.ArenaBytes
				r.PeakRowBytes = m.stats.Metrics.PeakRowBytes
				r.PairArenaBytes = m.stats.Metrics.PairArenaBytes
				r.ClosureMemoHits = m.stats.Metrics.ClosureMemoHits
			}
			r.PeakRSSBytes = peakRSSBytes()
			if !r.TimedOut {
				// One instrumented repetition for allocation figures.
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				if _, err := runOnce(f, engine, timeout); err != nil {
					return err
				}
				runtime.ReadMemStats(&after)
				r.AllocBytes = after.TotalAlloc - before.TotalAlloc
				r.Allocs = after.Mallocs - before.Mallocs
			}
			doc.Runs = append(doc.Runs, r)
			fmt.Fprintf(os.Stderr, "%s %s engine=%s: total=%s compose=%s derive=%s (safety=%s progress=%s emit=%s) env=%d/%d allocs=%d timedout=%v\n",
				label, f.Name, engine,
				time.Duration(r.TotalNs), time.Duration(r.ComposeNs), time.Duration(r.DeriveNs),
				time.Duration(r.SafetyNs), time.Duration(r.ProgressNs), time.Duration(r.EmitNs),
				r.EnvStatesExpanded, r.EnvStatesTotal, r.Allocs, r.TimedOut)
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}
