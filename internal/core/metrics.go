package core

import (
	"fmt"
	"io"
	"time"
)

// Metrics is the engine observability layer, carried in Result.Stats. Where
// Stats describes the derived artifact (state and transition counts),
// Metrics describes the work the engine did producing it.
type Metrics struct {
	// SafetyWall / ProgressWall are per-phase wall times; EmitWall is the
	// wall time of laying the surviving states out as the converter spec.
	SafetyWall   time.Duration
	ProgressWall time.Duration
	EmitWall     time.Duration
	// StatesExpanded counts converter states whose φ successors were
	// computed (equals SafetyStates on a completed safety phase).
	StatesExpanded int
	// SafetyLevels is the number of BFS frontier levels — the converter's
	// state-graph depth plus one.
	SafetyLevels int
	// PeakFrontier is the widest frontier level.
	PeakFrontier int
	// InternLookups / InternHits count pair-set interning operations; a
	// hit means φ produced a set already seen, i.e. an edge to an existing
	// state rather than a new one.
	InternLookups int
	InternHits    int
	// ProgressScans counts converter states examined across all
	// progress-phase sweeps. With the incremental phase this is usually
	// far below SafetyStates × iterations, which is what a full rescan
	// per sweep would cost.
	ProgressScans int
	// TauCacheHits counts composite ready sets served from the cross-sweep
	// memo instead of being recomputed; TauInvalidated counts memo entries
	// discarded because a removed state's predecessor closure touched them.
	// ReadySetRebuilds counts ready sets actually computed (first time or
	// after invalidation). Together they make the progress phase's
	// memoization observable: hits + rebuilds = ready sets consulted.
	TauCacheHits     int
	TauInvalidated   int
	ReadySetRebuilds int
	// EnvStatesExpanded / EnvStatesTotal describe how much of the
	// environment the derivation touched. Under a demand-driven environment
	// (*compose.Lazy), Expanded counts composite states whose successor
	// rows were computed and Total the states discovered (expanded plus the
	// frontier they revealed) — the reachable slice, versus the full
	// product the eager paths would have built. Under an eager environment
	// both equal the environment's (already materialized) state count.
	EnvStatesExpanded int
	EnvStatesTotal    int
	// EnvExpansionNs is the total wall time, in nanoseconds, spent
	// expanding environment states on demand during the derivation; always
	// 0 for eager environments (their compose cost is paid before Derive).
	EnvExpansionNs int64
	// ArenaBytes / PeakRowBytes describe a demand-driven environment's row
	// storage: the bytes reserved by compose.Lazy's append-only row arenas,
	// and the largest single state's row footprint. Both are 0 for eager
	// environments (their tables are materialized before derivation).
	ArenaBytes   int64
	PeakRowBytes int64
	// PairArenaBytes is the safety phase's arena-backed pair-set storage:
	// bytes reserved by the intern-table arena, the closure-memo arena,
	// and the converter successor rows. The scratch arena is excluded — it
	// rewinds every merge batch. Complements ArenaBytes, which covers the
	// demand-driven environment's row storage on the compose side.
	PairArenaBytes int64
	// ClosureMemoHits counts φ-step closures skipped entirely because the
	// seed set was already mapped to its closure's canonical state (or to a
	// known ok.J failure) by an earlier expansion.
	ClosureMemoHits int
}

// InternHitRate returns the fraction of intern lookups that found an
// existing pair set, in [0, 1]; 0 when no lookups happened.
func (m *Metrics) InternHitRate() float64 {
	if m.InternLookups == 0 {
		return 0
	}
	return float64(m.InternHits) / float64(m.InternLookups)
}

// TraceEvent is one structured derivation event, delivered to
// Options.Trace. Phase is always set; the remaining fields depend on the
// event kind:
//
//   - safety frontier level: Level, Frontier, States; Detail empty.
//   - safety summary: States, Transitions, Pairs; Detail set.
//   - progress removal (one per removed state): Iteration, State; Detail
//     empty.
//   - progress sweep summary: Iteration, Removed (0 on the fixpoint
//     sweep); Detail set.
//
// Events with a non-empty Detail are exactly the narration lines
// LogAdapter prints.
type TraceEvent struct {
	// Phase is "safety" or "progress".
	Phase string
	// State is the converter state name the event concerns, when it
	// concerns a single state.
	State string
	// Detail is a human-readable summary line, set only on per-phase /
	// per-sweep summary events.
	Detail string

	// Level and Frontier describe a safety-phase BFS level: its index and
	// the number of states expanded in it.
	Level    int
	Frontier int
	// States, Transitions, Pairs carry cumulative safety-phase counts.
	States      int
	Transitions int
	Pairs       int
	// Iteration is the 1-based progress-phase sweep; Removed the number
	// of states that sweep marked bad.
	Iteration int
	Removed   int
}

// LogAdapter converts a structured trace stream into line-oriented
// narration: it prints the Detail of summary events and ignores everything
// else. This is the line format of the removed Log writer option, so
// Trace: LogAdapter(w) reproduces its output exactly.
func LogAdapter(w io.Writer) func(TraceEvent) {
	return func(ev TraceEvent) {
		if ev.Detail == "" {
			return
		}
		fmt.Fprintf(w, "%s\n", ev.Detail)
	}
}
