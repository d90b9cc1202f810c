// Package core implements the quotient algorithm of Calvert & Lam,
// "Deriving a Protocol Converter: A Top-Down Method" (SIGCOMM 1989, §4) —
// the paper's primary contribution.
//
// Given a service specification A over alphabet Ext (in normal form) and a
// component specification B over Int ∪ Ext (in the protocol-conversion
// reading, B is the composition of the mismatched protocol halves and their
// channels, Int the converter-facing events, Ext the user-facing events),
// the algorithm produces a converter C over Int such that B‖C satisfies A,
// or reports that no such C exists. The derived converter is maximal: every
// trace of any correct converter is a trace of C.
//
// The derivation runs in two phases, mirroring the paper's Figures 5 and 6:
//
//  1. Safety phase. Converter states are sets of (a, b) pairs — the h.r
//     sets of the paper — encoding where A and B may be after any trace
//     whose Int-projection reached that state. Starting from h.ε, the
//     successor function φ(J, e) and the predicate ok.J grow the largest
//     converter C0 that keeps B‖C0 inside A's trace set.
//  2. Progress phase. States of C0 from which B‖C could stabilize on a
//     configuration whose ready set covers none of A's permitted acceptance
//     sets are "bad" and removed; removal changes reachability, so the
//     phase iterates to a fixpoint. If the initial state is removed, no
//     converter exists (Theorem 2).
//
// # Engine architecture
//
// The safety phase is exponential in the worst case and the quotient
// problem PSPACE-hard (paper §7), so the engine is built for the large
// instances:
//
//   - Pair sets are interned sparse sets over the V × S_A × S_B domain
//     (intern.go): one canonical ID per distinct set, and the ID doubles as
//     the converter state index. Set operations cost O(set size), not
//     O(domain), and the domain need not be known up front.
//   - Frontier expansion is level-synchronous and batched (expand.go):
//     φ(J, e) is computed for a batch of frontier states, then a merge
//     interns the results in frontier order, so the derived converter —
//     state numbering included — matches a plain worklist run. The phase
//     is single-threaded (expand.go says why).
//   - The environment may be demand-driven (*compose.Lazy): the safety
//     phase's closure walk is what first expands each composite state of B,
//     so derivation cost tracks the reachable slice of the product rather
//     than its full size. Metrics.EnvStatesExpanded reports the slice.
//   - The progress phase is incremental (progress.go): after a sweep
//     removes bad states, only converter states that can reach a removed
//     state (predecessors under T_C) can see their composite ready sets
//     change, so only those are re-examined.
//   - Derivations are cancellable (DeriveContext) and observable
//     (Options.Trace, Result.Stats.Metrics).
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"protoquot/internal/compose"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

// Environment is the read-side surface the deriver needs from B. Both
// *spec.Spec and *compose.Lazy satisfy it, so a composed environment can
// be fed to the engine straight from the index-space composition, without
// materializing composite state names: prepare copies an eager
// environment's transition structure into dense tables once, and StateName
// is consulted only on diagnostic paths (pair-set naming, error messages).
//
// ExtEdges must be sorted by (Event, To) and IntEdges ascending — the
// orders *spec.Spec guarantees — because frontier expansion and the
// progress phase's combo enumeration inherit determinism from them.
type Environment interface {
	Name() string
	NumStates() int
	Init() spec.State
	Alphabet() []spec.Event
	HasEvent(e spec.Event) bool
	ExtEdges(st spec.State) []spec.ExtEdge
	IntEdges(st spec.State) []spec.State
	StateName(st spec.State) string
}

// demandEnvironment is the surface of a demand-driven environment
// (*compose.Lazy): integer-id edge rows expanded on first demand, a
// non-expanding peek, and expansion accounting. When the (single) variant
// implements it, prepare skips the up-front edge-table copy and the hot
// loops pull rows straight from the environment — fusing product
// exploration into the safety phase.
type demandEnvironment interface {
	Environment
	Rows(st spec.State) ([]compose.Edge, []int32)
	PeekRows(st spec.State) ([]compose.Edge, []int32, bool)
	ExpansionStats() (expanded, discovered int, ns int64)
}

// Options tune the derivation. The zero value is the recommended default.
type Options struct {
	// OmitVacuous drops converter states whose pair set is empty. An empty
	// pair set means no behavior of B can accompany the converter there —
	// any trace B cannot match is trivially safe — so the paper's maximal
	// converter contains a single absorbing "vacuous" state with self-loops
	// on every Int event. By default it is kept, preserving the maximality
	// property of Theorem 1(ii) exactly; set OmitVacuous for a converter
	// containing only states that B can actually drive.
	OmitVacuous bool
	// MaxStates aborts the safety phase if the converter exceeds this many
	// states; 0 means unlimited. The quotient problem is PSPACE-hard and
	// the safety phase exponential in the worst case (paper §7), so
	// callers deriving from untrusted inputs should set a bound.
	MaxStates int
	// SafetyOnly stops after the safety phase and returns C0 — the largest
	// converter correct with respect to safety alone (the paper's
	// Figure 12 artifact). The result may violate progress; Exists then
	// means only "a safety converter exists".
	SafetyOnly bool
	// MinimizeComponents pre-reduces the environment before derivation:
	// each component of a composed environment (and a plain *spec.Spec
	// environment as a whole) is replaced by its strong-bisimulation
	// minimization (spec.Minimize). Minimization is a congruence for
	// composition and preserves both satisfaction properties, so the
	// derived converter accepts the same language — but its state
	// numbering and pair-set diagnostics reflect the reduced environment,
	// so the output is equivalent, not bit-identical, to the unreduced
	// derivation. Environments that are neither *spec.Spec nor
	// *compose.Lazy are left untouched.
	MinimizeComponents bool
	// Workers has no effect: the derivation is single-threaded.
	//
	// Deprecated: ignored.
	Workers int
	// Trace, when non-nil, receives structured derivation events: frontier
	// levels during the safety phase, per-state removals and sweep
	// summaries during the progress phase. Events carrying a non-empty
	// Detail are the per-phase summaries; see TraceEvent.
	Trace func(TraceEvent)
}

// Result is the outcome of a derivation.
type Result struct {
	// Converter is the derived maximal converter over Int, trimmed to
	// reachable states. It is nil iff Exists is false.
	Converter *spec.Spec
	// Exists reports whether a converter exists for the inputs.
	Exists bool
	// Stats describes the work performed.
	Stats Stats
	// pairSets maps each converter state name to its f.c pair set, in
	// (A-state, B-state) name pairs — diagnostic information, built on
	// first PairSet call by pairFn.
	pairSets map[string][][2]string
	pairFn   func() map[string][][2]string
}

// Stats records derivation effort, used by the benchmark harness to
// reproduce the paper's complexity observations (§7).
type Stats struct {
	// SafetyStates is |S_C0|: converter states after the safety phase.
	SafetyStates int
	// SafetyTransitions is |T_C0|.
	SafetyTransitions int
	// PairSetTotal is the summed cardinality of all f.c sets.
	PairSetTotal int
	// ProgressIterations counts progress-phase sweeps (≥1 when the
	// safety phase produced anything).
	ProgressIterations int
	// RemovedStates counts states deleted as bad across all iterations.
	RemovedStates int
	// FinalStates / FinalTransitions describe the returned converter.
	FinalStates      int
	FinalTransitions int
	// Metrics is the engine-level observability layer: per-phase wall
	// times, interning hit rate, frontier shape.
	Metrics Metrics
}

// PairSet returns the f.c pair set of a converter state (by state name) as
// (A-state, B-state) name pairs sorted by name, or nil if unknown. Useful
// for diagnosing why a state was kept or removed. The pair-set tables are
// materialized on the first call (state naming is pure overhead on the
// derivation hot path); PairSet is not safe for concurrent first use.
func (r *Result) PairSet(stateName string) [][2]string {
	if r.pairSets == nil && r.pairFn != nil {
		r.pairSets = r.pairFn()
		r.pairFn = nil
	}
	return r.pairSets[stateName]
}

// NoQuotientError reports that no converter exists, with the reason.
// It implements the protoquot.Diagnostic interface alongside
// sat.Violation.
type NoQuotientError struct {
	Reason string
	// FailedPhase is the phase that proved nonexistence: "safety" when
	// ok(h.ε) already fails, "progress" when the progress phase removed
	// the initial state.
	FailedPhase string
	// WitnessTrace is a witness for the failure when one is available. For
	// a safety failure it is a shortest external trace B can drive without
	// any converter action, ending with the event the service forbids. For
	// a progress failure it is an external trace leading h.ε to a blamed
	// composite configuration — one whose ready sets cannot cover any of
	// the service's acceptance sets no matter what the converter offers
	// (the progress phase proved the violation unavoidable from there;
	// Theorem 2). It may still be empty when no single-trace witness
	// exists.
	WitnessTrace []spec.Event
}

func (e *NoQuotientError) Error() string {
	return "quotient: no converter exists: " + e.Reason
}

// Phase returns the phase that proved nonexistence ("safety" or
// "progress").
func (e *NoQuotientError) Phase() string { return e.FailedPhase }

// Witness returns the witness trace, if any (see WitnessTrace).
func (e *NoQuotientError) Witness() []spec.Event { return e.WitnessTrace }

// bedge is an external transition of an environment with its event resolved
// to a dense index into the Σ_B alphabet — exactly compose.Edge, so rows
// from a demand-driven composite flow into the hot loops with no
// per-edge conversion.
type bedge = compose.Edge

// deriver carries the immutable inputs and the precomputed dense tables of
// one run. Everything set up by prepare is read-only during the safety
// phase; the intern table and the closure memo are written only by the
// merge. (Under a demand-driven environment, rowsOf expands composite
// states on first touch; that mutation is owned by compose.Lazy.)
type deriver struct {
	ctx   context.Context
	a     *spec.Spec
	bs    []Environment       // environment variants; len 1 for plain Derive
	lazy  demandEnvironment   // non-nil iff the single variant is demand-driven
	ext   map[spec.Event]bool // Ext = Σ_A
	intl  []spec.Event        // Int = Σ_B − Ext, sorted
	opts  Options
	trace func(TraceEvent)

	// Dense tables over Σ_B and the pair domain. A pair (v, a, b) is
	// encoded pb-major as (boff[v]+b)*numA + a: packed-b-major order makes
	// ascending pair order agree with the progress phase's combo tables,
	// and leaves the domain open-ended in b — the demand-driven environment
	// keeps discovering states while the derivation runs.
	events    []spec.Event // Σ_B, sorted
	isExt     []bool       // by event id: e ∈ Ext
	intlIndex []int32      // by event id: position in intl, or -1
	psi       []int32      // ψ-step table, numA×nev flat; -1 = not allowed
	bext      [][][]bedge  // [variant][bState] → resolved external edges; nil under lazy
	bintl     [][][]int32  // [variant][bState] → internal successors; nil under lazy
	boff      []int32      // packed-b offset per variant
	numBs     []int32      // |S_B| per variant; 0 under lazy (open-ended)
	numA      int
	nev       int

	// Mask-closure tables, built when useMask (numA ≤ 64): psiBit[a*nev+e]
	// is the one-bit mask of ψ(a, e)'s target A-state (0 when ψ is
	// undefined there), badA[e] the mask of A-states where ψ(·, e) is
	// undefined — reaching one of those with an external B-edge on e is an
	// ok.J violation.
	useMask bool
	psiBit  []uint64
	badA    []uint64

	table     *internTable
	memo      *seedMemo
	succArena *int32Arena
	states    []cstate
	met       *Metrics
	prog      *progTables // progress-phase memo tables; nil until that phase
	sc        *scratch    // safety-phase walk state and per-batch arena
}

// cState is a converter state under construction. Its pair set is
// table.get(its index): interned set IDs and state indices coincide because
// the safety phase creates exactly one state per distinct pair set.
type cstate struct {
	succ []int32 // by intl position; -1 = no transition; nil until expanded
}

func (d *deriver) stateName(i int32) string { return "c" + strconv.Itoa(int(i)) }

// Derive computes the quotient of A by B. A must be in normal form with
// Σ_A ⊆ Σ_B; Int is inferred as Σ_B − Σ_A. On success the Result carries
// the maximal converter; if no converter exists, Result.Exists is false and
// the error is a *NoQuotientError. Precondition failures return ordinary
// errors.
func Derive(a, b *spec.Spec, opts Options) (*Result, error) {
	return DeriveRobustContext(context.Background(), a, []*spec.Spec{b}, opts)
}

// DeriveContext is Derive with cancellation: ctx is checked once per
// safety-phase frontier level and once per progress-phase sweep, and a
// canceled derivation returns an error wrapping ctx.Err().
func DeriveContext(ctx context.Context, a, b *spec.Spec, opts Options) (*Result, error) {
	return DeriveRobustContext(ctx, a, []*spec.Spec{b}, opts)
}

// DeriveRobust computes a converter that is simultaneously correct for
// every environment variant: for each B_i in bs, B_i‖C satisfies A. All
// variants must share one alphabet.
//
// This generalization addresses a deployment subtlety the package tests
// document: under the paper's fairness assumption, message loss is an
// internal transition that eventually occurs, so the maximal converter may
// contain recovery paths that rely on loss. A converter derived against
// both the lossy environment and its loss-free variant contains only
// behavior that works whether or not losses happen. With a single variant
// DeriveRobust is exactly the paper's algorithm.
//
// The construction runs the two phases on sets of (variant, a, b) triples:
// a trace is safe iff safe in every variant, and a converter state is bad
// if a progress violation is possible in any variant. Maximality holds per
// variant, so the result has the largest trace set among robust converters.
func DeriveRobust(a *spec.Spec, bs []*spec.Spec, opts Options) (*Result, error) {
	return DeriveRobustContext(context.Background(), a, bs, opts)
}

// DeriveRobustContext is DeriveRobust with cancellation; see DeriveContext.
func DeriveRobustContext(ctx context.Context, a *spec.Spec, bs []*spec.Spec, opts Options) (*Result, error) {
	envs := make([]Environment, len(bs))
	for i, b := range bs {
		envs[i] = b
	}
	return DeriveEnvsContext(ctx, a, envs, opts)
}

// DeriveEnv is Derive over any Environment — most usefully a
// *compose.Lazy, whose composite states the safety phase expands on demand
// with no *spec.Spec materialization in between.
func DeriveEnv(a *spec.Spec, b Environment, opts Options) (*Result, error) {
	return DeriveEnvsContext(context.Background(), a, []Environment{b}, opts)
}

// DeriveEnvContext is DeriveEnv with cancellation; see DeriveContext.
func DeriveEnvContext(ctx context.Context, a *spec.Spec, b Environment, opts Options) (*Result, error) {
	return DeriveEnvsContext(ctx, a, []Environment{b}, opts)
}

// DeriveEnvsContext is the most general entry point: DeriveRobust semantics
// over arbitrary Environment variants, with cancellation. Every other
// Derive* function funnels here.
func DeriveEnvsContext(ctx context.Context, a *spec.Spec, bs []Environment, opts Options) (*Result, error) {
	if err := a.IsNormalForm(); err != nil {
		return nil, fmt.Errorf("quotient: service spec: %w", err)
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("quotient: no environment specification")
	}
	for _, b := range bs[1:] {
		if !sameAlphabet(bs[0], b) {
			return nil, fmt.Errorf("quotient: environment variants %s and %s have different alphabets",
				bs[0].Name(), b.Name())
		}
	}
	if opts.MinimizeComponents {
		reduced := make([]Environment, len(bs))
		for i, b := range bs {
			reduced[i] = minimizeEnv(b)
		}
		bs = reduced
	}
	var lazyEnv demandEnvironment
	for _, b := range bs {
		if de, ok := b.(demandEnvironment); ok {
			if len(bs) > 1 {
				// The pair encoding needs every variant's state count up
				// front; a demand-driven variant discovers its states
				// during derivation, so it must be the only one.
				return nil, fmt.Errorf("quotient: demand-driven environment %s cannot be combined with other variants", b.Name())
			}
			lazyEnv = de
		}
	}
	ext := make(map[spec.Event]bool, len(a.Alphabet()))
	for _, e := range a.Alphabet() {
		if !bs[0].HasEvent(e) {
			return nil, fmt.Errorf("quotient: service event %q not in Σ_B; Ext must be a subset of B's interface", e)
		}
		ext[e] = true
	}
	var intl []spec.Event
	for _, e := range bs[0].Alphabet() {
		if !ext[e] {
			intl = append(intl, e)
		}
	}
	if len(intl) == 0 {
		return nil, fmt.Errorf("quotient: Int = Σ_B − Ext is empty; B leaves no interface for a converter")
	}
	d := &deriver{ctx: ctx, a: a, bs: bs, lazy: lazyEnv, ext: ext, intl: intl, opts: opts}
	d.trace = opts.Trace
	d.prepare()
	return d.run()
}

// minimizeEnv pre-reduces one environment for Options.MinimizeComponents:
// a plain spec is minimized directly; a composed environment is rebuilt
// from its minimized components (compose.MinimizeComponents — minimization
// is a congruence for composition). Unknown environment types pass through
// unchanged.
func minimizeEnv(b Environment) Environment {
	switch e := b.(type) {
	case *spec.Spec:
		return e.Minimize()
	case *compose.Lazy:
		if x, err := compose.LazyMany(compose.MinimizeComponents(e.Components()...)...); err == nil {
			return x
		}
	}
	return b
}

func sameAlphabet(x, y Environment) bool {
	ax, ay := x.Alphabet(), y.Alphabet()
	if len(ax) != len(ay) {
		return false
	}
	for i := range ax {
		if ax[i] != ay[i] {
			return false
		}
	}
	return true
}

// emit delivers one trace event when tracing is enabled.
func (d *deriver) emit(ev TraceEvent) {
	if d.trace != nil {
		d.trace(ev)
	}
}

// prepare builds the dense lookup tables the hot loops run on: event ids
// over Σ_B, the ψ-step table of A, per-variant edge lists with resolved
// event ids, and the pair-domain layout.
func (d *deriver) prepare() {
	d.events = d.bs[0].Alphabet()
	d.nev = len(d.events)
	eid := make(map[spec.Event]int32, d.nev)
	d.isExt = make([]bool, d.nev)
	d.intlIndex = make([]int32, d.nev)
	for i, e := range d.events {
		eid[e] = int32(i)
		d.isExt[i] = d.ext[e]
		d.intlIndex[i] = -1
	}
	for i, e := range d.intl {
		d.intlIndex[eid[e]] = int32(i)
	}

	d.numA = d.a.NumStates()
	d.psi = make([]int32, d.numA*d.nev)
	for a := 0; a < d.numA; a++ {
		for ei := 0; ei < d.nev; ei++ {
			d.psi[a*d.nev+ei] = -1
			if !d.isExt[ei] {
				continue
			}
			if a2, ok := d.a.PsiStep(spec.State(a), d.events[ei]); ok {
				d.psi[a*d.nev+ei] = int32(a2)
			}
		}
	}

	d.boff = make([]int32, len(d.bs))
	d.numBs = make([]int32, len(d.bs))
	if d.lazy == nil {
		d.bext = make([][][]bedge, len(d.bs))
		d.bintl = make([][][]int32, len(d.bs))
		var packed int32
		for v, b := range d.bs {
			d.boff[v] = packed
			nb := int32(b.NumStates())
			d.numBs[v] = nb
			packed += nb
			edges := make([][]bedge, nb)
			ints := make([][]int32, nb)
			for st := int32(0); st < nb; st++ {
				src := b.ExtEdges(spec.State(st))
				out := make([]bedge, len(src))
				for i, ed := range src {
					out[i] = bedge{Ev: eid[ed.Event], To: int32(ed.To)}
				}
				edges[st] = out
				tos := b.IntEdges(spec.State(st))
				row := make([]int32, len(tos))
				for i, t := range tos {
					row[i] = int32(t)
				}
				ints[st] = row
			}
			d.bext[v] = edges
			d.bintl[v] = ints
		}
	}
	// Under a demand-driven environment no edge tables are copied (the
	// environment is the table, expanded as the safety phase walks it) and
	// the packed-b domain stays open-ended: boff = [0], numBs[0] = 0.

	d.useMask = maskClosureEnabled && d.numA <= 64
	if d.useMask {
		d.psiBit = make([]uint64, d.numA*d.nev)
		d.badA = make([]uint64, d.nev)
		for a := 0; a < d.numA; a++ {
			for ei := 0; ei < d.nev; ei++ {
				if !d.isExt[ei] {
					continue
				}
				if a2 := d.psi[a*d.nev+ei]; a2 >= 0 {
					d.psiBit[a*d.nev+ei] = 1 << uint(a2)
				} else {
					d.badA[ei] |= 1 << uint(a)
				}
			}
		}
	}
	d.table = newInternTable()
	d.memo = newSeedMemo()
	d.succArena = newInt32Arena()
	d.sc = newScratch(d)
}

// encode maps a (variant, a, b) triple to its pair-domain index
// (pb-major; see the deriver field comments).
func (d *deriver) encode(v int, a, b int32) int32 {
	return (d.boff[v]+b)*int32(d.numA) + a
}

// decode is the inverse of encode.
func (d *deriver) decode(p int32) (v int, a, b int32) {
	numA := int32(d.numA)
	a = p % numA
	pb := p / numA
	v = d.variantOf(pb)
	return v, a, pb - d.boff[v]
}

// variantOf recovers the variant index from a packed-b id.
func (d *deriver) variantOf(pb int32) int {
	v := len(d.boff) - 1
	for d.boff[v] > pb {
		v--
	}
	return v
}

// rowsOf returns b-state b's external edges (events resolved to Σ_B ids)
// and internal successors, in canonical order. Under a demand-driven
// environment this is the fusion point: the first request for a state's
// rows is what expands it.
func (d *deriver) rowsOf(v int, b int32) ([]bedge, []int32) {
	if d.lazy != nil {
		return d.lazy.Rows(spec.State(b))
	}
	return d.bext[v][b], d.bintl[v][b]
}

func (d *deriver) run() (*Result, error) {
	res := &Result{}
	d.met = &res.Stats.Metrics

	// ---- Safety phase (paper Fig. 5) ----
	t0 := time.Now()
	err := d.safetyPhase()
	d.met.SafetyWall = time.Since(t0)
	d.fillSafetyMetrics()
	d.fillEnvMetrics()
	if err != nil {
		if nq, ok := err.(*NoQuotientError); ok {
			return res, nq
		}
		return nil, err
	}
	res.Stats.SafetyStates = len(d.states)
	for i := range d.states {
		for _, t := range d.states[i].succ {
			if t >= 0 {
				res.Stats.SafetyTransitions++
			}
		}
		res.Stats.PairSetTotal += d.table.get(int32(i)).count()
	}
	d.emit(TraceEvent{
		Phase:       "safety",
		States:      res.Stats.SafetyStates,
		Transitions: res.Stats.SafetyTransitions,
		Pairs:       res.Stats.PairSetTotal,
		Detail: fmt.Sprintf("safety phase: %d states, %d transitions, %d tracked (a,b) pairs",
			res.Stats.SafetyStates, res.Stats.SafetyTransitions, res.Stats.PairSetTotal),
	})

	// ---- Progress phase (paper Fig. 6) ----
	alive := make([]bool, len(d.states))
	for i := range alive {
		alive[i] = true
	}
	if !d.opts.SafetyOnly {
		t1 := time.Now()
		err = d.progressPhase(res, alive)
		d.met.ProgressWall = time.Since(t1)
		if err != nil {
			if nq, ok := err.(*NoQuotientError); ok {
				return res, nq
			}
			return nil, err
		}
	}

	// ---- Emit the converter spec ----
	t2 := time.Now()
	c, err := emitter(d, alive)
	d.met.EmitWall = time.Since(t2)
	if err != nil {
		return nil, fmt.Errorf("quotient: building converter: %w", err)
	}
	res.Converter = c
	res.Exists = true
	res.Stats.FinalStates = c.NumStates()
	res.Stats.FinalTransitions = c.NumExternalTransitions()
	res.pairFn = func() map[string][][2]string {
		out := make(map[string][][2]string, len(d.states))
		for ci := range d.states {
			if !alive[ci] {
				continue
			}
			set := d.table.get(int32(ci))
			pairs := make([][2]string, 0, set.count())
			set.forEach(func(p int32) {
				v, a, b := d.decode(p)
				bName := d.bs[v].StateName(spec.State(b))
				if len(d.bs) > 1 {
					bName = fmt.Sprintf("%s@%d", bName, v)
				}
				pairs = append(pairs, [2]string{d.a.StateName(spec.State(a)), bName})
			})
			// Sort by name so the diagnostic does not depend on b-state
			// ids, which are demand order under a lazy environment.
			sort.Slice(pairs, func(i, j int) bool {
				if pairs[i][0] != pairs[j][0] {
					return pairs[i][0] < pairs[j][0]
				}
				return pairs[i][1] < pairs[j][1]
			})
			out[d.stateName(int32(ci))] = pairs
		}
		return out
	}
	d.fillEnvMetrics()
	return res, nil
}

// fillSafetyMetrics records the safety phase's interning, memoization, and
// arena accounting. PairArenaBytes covers the storage that persists for the
// derivation — the intern-table arena, the closure-memo arena, the
// successor rows — and excludes the scratch arena, which is transient
// (reset every merge batch).
func (d *deriver) fillSafetyMetrics() {
	// A memo hit resolving to a state is "φ produced a set already seen" —
	// fold it into the intern counters so they keep the exact values the
	// memo-less engine reported (see scratch.memoOK).
	d.met.InternLookups = d.table.lookups + d.sc.memoOK
	d.met.InternHits = d.table.hits + d.sc.memoOK
	d.met.PairArenaBytes = d.table.arena.reserved + d.memo.bytes() + d.succArena.reserved
	d.met.ClosureMemoHits = d.sc.memoHits
}

// fillEnvMetrics records how much of the environment the derivation
// touched. Under a demand-driven environment this is the reachable-slice
// accounting (expanded « total possible when the derivation is selective);
// eager environments were fully materialized before derivation began, so
// expanded = total = the reachable product size, with no expansion time
// attributed to the derivation.
func (d *deriver) fillEnvMetrics() {
	if d.lazy != nil {
		expanded, discovered, ns := d.lazy.ExpansionStats()
		d.met.EnvStatesExpanded = expanded
		d.met.EnvStatesTotal = discovered
		d.met.EnvExpansionNs = ns
		if ms, ok := d.lazy.(interface{ MemStats() (int64, int64) }); ok {
			d.met.ArenaBytes, d.met.PeakRowBytes = ms.MemStats()
		}
		return
	}
	total := 0
	for _, b := range d.bs {
		total += b.NumStates()
	}
	d.met.EnvStatesExpanded = total
	d.met.EnvStatesTotal = total
}

// safetyPhase grows the largest safe converter C0 by level-synchronous
// frontier expansion. Each level is processed in merge batches of
// safetyMergeBatch states: a batch's φ results are computed, then interned
// in frontier order by mergeBatch — which reproduces exactly the state
// numbering of a plain worklist run, so the converter is bit-identical at
// every batch size. Batching also bounds the MaxStates overshoot: the cap
// is checked
// after every batch, so a single huge frontier level can no longer run
// arbitrarily far past the configured limit before the abort fires.
func (d *deriver) safetyPhase() error {
	seeds := make([]int32, len(d.bs))
	for v, b := range d.bs {
		seeds[v] = d.encode(v, int32(d.a.Init()), int32(b.Init()))
	}
	h0, ok, _ := d.closure(d.sc, seeds)
	if !ok {
		// The closure aborted at the first violation; the witness search
		// re-walks the same ball breadth-first for a shortest offending run.
		return &NoQuotientError{
			Reason:       "ok(h.ε) fails: B can emit an external event the service forbids before any converter action",
			FailedPhase:  "safety",
			WitnessTrace: d.safetyWitness(seeds),
		}
	}
	d.table.intern(h0, h0.hash()) // ID 0 = initial state
	d.sc.arena.reset()            // h0 now lives in intern-table storage
	d.states = append(d.states, cstate{})

	ne := len(d.intl)
	batch := safetyMergeBatch
	if batch < 1 {
		batch = 1
	}
	results := make([]phiResult, batch*ne)
	lo, hi := 0, 1
	for level := 0; lo < hi; level++ {
		if err := d.ctx.Err(); err != nil {
			return fmt.Errorf("quotient: safety phase canceled at frontier level %d (%d states): %w",
				level, len(d.states), err)
		}
		frontier := hi - lo
		if frontier > d.met.PeakFrontier {
			d.met.PeakFrontier = frontier
		}
		d.met.SafetyLevels = level + 1
		d.emit(TraceEvent{Phase: "safety", Level: level, Frontier: frontier, States: len(d.states)})
		for blo := lo; blo < hi; blo += batch {
			bhi := min(blo+batch, hi)
			res := results[:(bhi-blo)*ne]
			d.expandBatch(blo, bhi, res)
			d.mergeBatch(blo, bhi, res)
			d.sc.arena.reset() // surviving sets were copied into intern/memo storage
			if d.opts.MaxStates > 0 && len(d.states) > d.opts.MaxStates {
				return fmt.Errorf("quotient: safety phase exceeded MaxStates=%d (aborted at %d states)",
					d.opts.MaxStates, len(d.states))
			}
		}
		lo, hi = hi, len(d.states)
	}
	return nil
}

// mergeBatch interns one batch of φ results and assigns canonical state
// IDs in one walk over the results in frontier (state, Int-event) order:
// each set is found in the intern table or added under the next ID at its
// first occurrence. First occurrence in frontier order is precisely the
// discovery order of the plain worklist engine, so the numbering — and
// everything downstream of it — does not depend on the batch size. The
// walk also records each computed closure in the seed memo (successor ID,
// or memoFail for an ok.J failure); that is the memo's only write path, so
// a closure computed in this batch is first reused by the next one.
func (d *deriver) mergeBatch(lo, hi int, results []phiResult) {
	ne := len(d.intl)
	omit := d.opts.OmitVacuous
	i := 0
	for si := lo; si < hi; si++ {
		succ := d.succArena.alloc(ne)
		for ei := 0; ei < ne; ei++ {
			r := &results[i]
			i++
			succ[ei] = -1
			if !r.ok {
				// ok.J fails: omit the transition (and the state); memoize
				// the failure so repeats skip the closure too.
				if r.seedSet != nil {
					d.memo.put(r.seedSet, r.seedHash, memoFail)
				}
				continue
			}
			if r.memoGID >= 0 {
				succ[ei] = r.memoGID
				continue
			}
			if r.set == nil && omit {
				continue // vacuously safe: no trace of B matches
			}
			id, hit := d.table.intern(r.set, r.hash)
			if !hit {
				d.states = append(d.states, cstate{})
			}
			succ[ei] = id
			if r.seedSet != nil {
				d.memo.put(r.seedSet, r.seedHash, id)
			}
		}
		d.states[si].succ = succ
		d.met.StatesExpanded++
	}
}

// Verify checks end to end that B‖C satisfies A, using the composition
// operator and the satisfaction checker. It is the library's independent
// oracle for derivation correctness (paper Theorems 1 and 2 imply it always
// holds for converters returned by Derive).
func Verify(a, b, c *spec.Spec) error {
	bc := compose.Pair(b, c)
	if !sat.SameInterface(bc, a) {
		return fmt.Errorf("quotient: B‖C has interface %v, service has %v", bc.Alphabet(), a.Alphabet())
	}
	return sat.Satisfies(bc, a)
}

// VerifyRobust checks B_i‖C satisfies A for every environment variant.
func VerifyRobust(a *spec.Spec, bs []*spec.Spec, c *spec.Spec) error {
	for _, b := range bs {
		if err := Verify(a, b, c); err != nil {
			return fmt.Errorf("variant %s: %w", b.Name(), err)
		}
	}
	return nil
}
