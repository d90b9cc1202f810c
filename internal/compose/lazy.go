// Demand-driven n-way composition: the product is expanded one state at a
// time, when a consumer first asks for that state's successors.
//
// Materializing the whole reachable product up front is mostly wasted work
// on large systems: the quotient algorithm's safety phase only ever walks
// the composite states reachable under the converter being built (the
// paper's h.r sets). Lazy compiles the component tables and interns
// mixed-radix tuples but does no up-front sweep: a state's edge rows are
// computed inside Rows on first demand, under a mutex, and then published
// through an atomic flag so every later read is lock-free. Unlike the left
// fold Many it never builds intermediate pairwise products, which explode
// on open topologies (rings) while the final reachable set stays small.
//
// State ids are assigned in demand order, so they depend on which consumer
// asked first: the deriver's closure engine and merge batch size change the
// order, and concurrent callers of one Lazy race for it. The ids are
// private renamings of the same product, and everything the engine emits
// (converter structure, pair sets as sets, expansion counts) is invariant
// under renaming; only the raw ids themselves are not stable across
// consumers.
package compose

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"protoquot/internal/spec"
)

// Edge is one external transition of a composite, with the event resolved
// to an index into the composite's external alphabet (Alphabet()). Keeping
// the event as a dense index lets the deriver consume composite edges with
// no per-edge map lookups; the external alphabet is sorted, so integer Ev
// order is event-name order.
type Edge struct {
	Ev int32 // index into Alphabet()
	To int32
}

// Rows are stored in fixed-location pages so a published row pointer never
// moves when the directory grows.
const (
	lazyPageShift = 10
	lazyPageSize  = 1 << lazyPageShift
)

type lazyRow struct {
	ext  []Edge
	intl []int32
	// done publishes the row: it is stored (with release semantics) only
	// after ext and intl are written, so any reader observing done=true
	// sees the completed row without taking the expansion lock.
	done atomic.Bool
}

type lazyPage [lazyPageSize]lazyRow

// Lazy is a demand-driven composite: the reachable product of n components,
// expanded state by state as consumers ask for successors. It implements
// core.Environment (like *spec.Spec), plus the demand-side surface the fused
// deriver uses: Rows, PeekRows, ExpansionStats.
//
// All methods are safe for concurrent use. Reads of already-expanded rows
// are lock-free; first-demand expansion serializes on an internal mutex.
type Lazy struct {
	comps []*spec.Spec
	name  string
	k     int
	tb    *compTables

	eventSet map[spec.Event]struct{}

	// dir is the grow-only page directory: the slice of page pointers is
	// cloned on append (under mu) and swapped in atomically, so readers
	// never see a partially grown directory.
	dir atomic.Pointer[[]*lazyPage]

	expanded   atomic.Int64
	discovered atomic.Int64
	expandNs   atomic.Int64

	// mu guards discovery and expansion: the tuple intern, the tuple
	// arena, the row arenas, the names StateName has materialized, and the
	// scratch buffers.
	mu      sync.Mutex
	tuples  []int32
	ti      *tupleIntern
	arena   rowArena
	peakRow int64 // largest single published row, in bytes
	succBuf []int32
	extBuf  []Edge // expansion staging; published rows are arena sub-slices
	intlBuf []int32
	names   map[int32]string
}

// LazyMany builds the demand-driven composition of the components. Like
// Many it requires pairwise-disjoint interfaces (no event in three or more
// components) and represents the same machine; only the init state is
// interned up front.
func LazyMany(components ...*spec.Spec) (*Lazy, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("compose: no components")
	}
	tb, err := compileComponents(components)
	if err != nil {
		return nil, err
	}
	numStates := make([]int, len(components))
	for i, c := range components {
		numStates[i] = c.NumStates()
	}
	x := &Lazy{
		comps:    components,
		name:     foldName(components),
		k:        len(components),
		tb:       tb,
		eventSet: make(map[spec.Event]struct{}, len(tb.external)),
		ti:       newTupleIntern(tb, numStates),
		succBuf:  make([]int32, len(components)),
		names:    make(map[int32]string),
	}
	for _, e := range tb.external {
		x.eventSet[e] = struct{}{}
	}
	empty := []*lazyPage{}
	x.dir.Store(&empty)
	initTuple := make([]int32, x.k)
	for ci, c := range components {
		initTuple[ci] = int32(c.Init())
	}
	x.mu.Lock()
	x.internLocked(initTuple) // id 0 = composite init
	x.mu.Unlock()
	return x, nil
}

// foldName reproduces Many's nested composite name, e.g. "((A||B)||C)".
func foldName(components []*spec.Spec) string {
	name := components[0].Name()
	for _, c := range components[1:] {
		name = fmt.Sprintf("(%s||%s)", name, c.Name())
	}
	return name
}

// MustLazyMany is LazyMany that panics on error.
func MustLazyMany(components ...*spec.Spec) *Lazy {
	x, err := LazyMany(components...)
	if err != nil {
		panic(err)
	}
	return x
}

// internLocked returns the id of the composite state with the given
// component tuple, discovering (and allocating a row slot for) it if new.
// Caller holds mu.
func (x *Lazy) internLocked(tuple []int32) int32 {
	next := int32(len(x.tuples) / x.k)
	var id int32
	var isNew bool
	if x.ti.radixOK {
		id, isNew = x.ti.internKey(x.ti.key(tuple), next)
	} else {
		id, isNew = x.ti.internTuple(tuple, next)
	}
	if isNew {
		x.addLocked(tuple)
	}
	return id
}

// succLocked returns the id of tuple's successor with component ci moved to
// to and, for a synchronized step (cj >= 0), component cj moved to toj. On
// the radix tiers base is tuple's key, and the successor's key differs from
// it by (to − tuple[ci])·strides[ci] per moved component, so a known
// successor costs no tuple copy and no k-term key. Caller holds mu.
func (x *Lazy) succLocked(tuple []int32, base uint64, ci int, to int32, cj int, toj int32) int32 {
	if !x.ti.radixOK {
		return x.internLocked(x.succTuple(tuple, ci, to, cj, toj))
	}
	// Each term is taken mod 2^64; the sum is the successor's key, which
	// lies in [0, product), whatever the signs of the moves.
	key := base + uint64(int64(to-tuple[ci]))*x.ti.strides[ci]
	if cj >= 0 {
		key += uint64(int64(toj-tuple[cj])) * x.ti.strides[cj]
	}
	id, isNew := x.ti.internKey(key, int32(len(x.tuples)/x.k))
	if isNew {
		x.addLocked(x.succTuple(tuple, ci, to, cj, toj))
	}
	return id
}

// succTuple writes the successor tuple succLocked describes into succBuf.
func (x *Lazy) succTuple(tuple []int32, ci int, to int32, cj int, toj int32) []int32 {
	copy(x.succBuf, tuple)
	x.succBuf[ci] = to
	if cj >= 0 {
		x.succBuf[cj] = toj
	}
	return x.succBuf
}

func (x *Lazy) addLocked(tuple []int32) {
	id := int32(len(x.tuples) / x.k)
	// Grow the tuple spine by explicit doubling: append's ~1.25× growth
	// curve for large slices costs ~5× the final size in cumulative
	// allocation, and at a million discovered states the spine dominates
	// the composition's alloc_bytes. Readers that captured a sub-slice keep
	// the old backing array, exactly as under append.
	if need := len(x.tuples) + x.k; need > cap(x.tuples) {
		grown := make([]int32, len(x.tuples), max(2*cap(x.tuples), need, 256*x.k))
		copy(grown, x.tuples)
		x.tuples = grown
	}
	x.tuples = append(x.tuples, tuple...)
	cur := *x.dir.Load()
	if need := (int(id) >> lazyPageShift) + 1; need > len(cur) {
		grown := make([]*lazyPage, need)
		copy(grown, cur)
		for i := len(cur); i < need; i++ {
			grown[i] = new(lazyPage)
		}
		x.dir.Store(&grown)
	}
	x.discovered.Store(int64(id) + 1)
}

func (x *Lazy) row(st int32) *lazyRow {
	dir := *x.dir.Load()
	return &dir[st>>lazyPageShift][st&(lazyPageSize-1)]
}

// Rows returns st's external edges (sorted by (Ev, To), deduplicated) and
// internal successors (sorted ascending, deduplicated), expanding the state
// on first demand. The caller must not modify the returned slices.
func (x *Lazy) Rows(st spec.State) ([]Edge, []int32) {
	r := x.row(int32(st))
	if r.done.Load() {
		return r.ext, r.intl
	}
	return x.expand(int32(st))
}

// PeekRows is Rows without the expansion: it returns the rows if st has
// already been expanded, and (nil, nil, false) otherwise.
func (x *Lazy) PeekRows(st spec.State) ([]Edge, []int32, bool) {
	r := x.row(int32(st))
	if r.done.Load() {
		return r.ext, r.intl, true
	}
	return nil, nil, false
}

func (x *Lazy) expand(st int32) ([]Edge, []int32) {
	x.mu.Lock()
	defer x.mu.Unlock()
	r := x.row(st)
	if r.done.Load() {
		return r.ext, r.intl
	}
	start := time.Now()
	// tuple aliases the arena as it is now; interning successors may grow
	// (reallocate) x.tuples, but the captured backing array keeps st's
	// values, which never change.
	tuple := x.tuples[int(st)*x.k : int(st)*x.k+x.k]
	var base uint64
	if x.ti.radixOK {
		base = x.ti.key(tuple)
	}
	ext := x.extBuf[:0]
	intl := x.intlBuf[:0]
	tb := x.tb
	for ci := range x.comps {
		for _, t := range tb.cintl[ci][tuple[ci]] {
			intl = append(intl, x.succLocked(tuple, base, ci, t, -1, 0))
		}
		for _, ed := range tb.cext[ci][tuple[ci]] {
			pj := tb.partner[ci][ed.ev]
			if pj < 0 {
				q := x.succLocked(tuple, base, ci, ed.to, -1, 0)
				ext = append(ext, Edge{Ev: tb.extIdx[ed.ev], To: q})
				continue
			}
			if pj < int32(ci) {
				continue // emitted when the lower-indexed owner was scanned
			}
			for _, bd := range tb.cext[pj][tuple[pj]] {
				if bd.ev != ed.ev {
					continue
				}
				intl = append(intl, x.succLocked(tuple, base, ci, ed.to, int(pj), bd.to))
			}
		}
	}
	slices.SortFunc(ext, func(a, b Edge) int {
		if a.Ev != b.Ev {
			return int(a.Ev) - int(b.Ev)
		}
		return int(a.To) - int(b.To)
	})
	ext = dedupeEdges(ext)
	slices.Sort(intl)
	intl = dedupeInt32s(intl)
	// Publish arena-backed sub-slices; the staging buffers (and their
	// grown capacity) are reused by the next expansion, so they must never
	// leak to a caller. Arena chunks never move, so the published headers
	// stay valid for the Lazy's lifetime without per-row allocations.
	if len(ext) > 0 {
		r.ext = x.arena.allocEdges(len(ext))
		copy(r.ext, ext)
	}
	if len(intl) > 0 {
		r.intl = x.arena.allocInts(len(intl))
		copy(r.intl, intl)
	}
	x.extBuf, x.intlBuf = ext[:0], intl[:0]
	if rb := int64(len(ext))*8 + int64(len(intl))*4; rb > x.peakRow {
		x.peakRow = rb
	}
	r.done.Store(true) // publish: must follow the ext/intl writes
	x.expanded.Add(1)
	x.expandNs.Add(time.Since(start).Nanoseconds())
	return r.ext, r.intl
}

func dedupeEdges(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	out := edges[:1]
	for _, ed := range edges[1:] {
		if ed != out[len(out)-1] {
			out = append(out, ed)
		}
	}
	return out
}

func dedupeInt32s(xs []int32) []int32 {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, t := range xs[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// ExpansionStats reports how much of the product has been touched: states
// whose successor rows were computed, states discovered (expanded states
// plus the frontier they revealed), and total nanoseconds spent expanding.
func (x *Lazy) ExpansionStats() (expanded, discovered int, ns int64) {
	return int(x.expanded.Load()), int(x.discovered.Load()), x.expandNs.Load()
}

// MemStats reports the row-storage footprint: total bytes reserved by the
// row arenas and the size in bytes of the largest single published row
// (ext edges at 8 bytes each plus internal successors at 4). The deriver
// surfaces both through core.Metrics.
func (x *Lazy) MemStats() (arenaBytes, peakRowBytes int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.arena.bytes, x.peakRow
}

// Name returns the composite name, matching what Many would produce.
func (x *Lazy) Name() string { return x.name }

// NumStates returns the number of composite states discovered so far. It
// grows as the product is explored; it is not the full reachable count
// unless exploration has saturated.
func (x *Lazy) NumStates() int { return int(x.discovered.Load()) }

// Init returns the composite initial state (always 0: the first intern).
func (x *Lazy) Init() spec.State { return 0 }

// Alphabet returns the composite's external alphabet, sorted. Edge.Ev
// indexes this slice.
func (x *Lazy) Alphabet() []spec.Event { return x.tb.external }

// HasEvent reports whether e is in the composite's external alphabet.
func (x *Lazy) HasEvent(e spec.Event) bool {
	_, ok := x.eventSet[e]
	return ok
}

// ExtEdges returns st's external transitions, sorted by (Event, To),
// expanding st on demand. This is the core.Environment surface, used by
// diagnostics and by the eager deriver path; the fused path uses Rows. The
// caller must not modify the returned slice.
func (x *Lazy) ExtEdges(st spec.State) []spec.ExtEdge {
	ext, _ := x.Rows(st)
	out := make([]spec.ExtEdge, len(ext))
	for i, ed := range ext {
		out[i] = spec.ExtEdge{Event: x.tb.external[ed.Ev], To: spec.State(ed.To)}
	}
	return out
}

// IntEdges returns st's internal successors, sorted ascending, expanding st
// on demand. See ExtEdges.
func (x *Lazy) IntEdges(st spec.State) []spec.State {
	_, intl := x.Rows(st)
	out := make([]spec.State, len(intl))
	for i, t := range intl {
		out[i] = spec.State(t)
	}
	return out
}

// Components returns the component list the composite was built from. The
// caller must not modify it.
func (x *Lazy) Components() []*spec.Spec { return x.comps }

// StateName materializes st's composite name ("a|b|c"), caching it. Only
// named states pay for a cache entry: a derivation names just the states
// its diagnostics print, however many composite states it discovers.
func (x *Lazy) StateName(st spec.State) string {
	x.mu.Lock()
	defer x.mu.Unlock()
	if n, ok := x.names[int32(st)]; ok {
		return n
	}
	tuple := x.tuples[int(st)*x.k : int(st)*x.k+x.k]
	buf := make([]byte, 0, 8*x.k)
	for ci, c := range x.comps {
		if ci > 0 {
			buf = append(buf, StateSep...)
		}
		buf = append(buf, c.StateName(spec.State(tuple[ci]))...)
	}
	n := string(buf)
	x.names[int32(st)] = n
	return n
}

// Spec saturates the product (expanding every reachable state) and
// materializes it as an eager *spec.Spec — the bridge to consumers needing
// the full Spec surface (Format, .dot rendering, sat checks). The state
// numbering reflects this Lazy's demand order.
func (x *Lazy) Spec() (*spec.Spec, error) {
	for st := 0; st < x.NumStates(); st++ { // NumStates grows as we expand
		x.Rows(spec.State(st))
	}
	n := x.NumStates()
	d := spec.Dense{
		Name:       x.name,
		StateNames: make([]string, n),
		Init:       0,
		Alphabet:   x.tb.external,
		Ext:        make([][]spec.ExtEdge, n),
		Int:        make([][]spec.State, n),
	}
	for st := 0; st < n; st++ {
		d.StateNames[st] = x.StateName(spec.State(st))
		d.Ext[st] = x.ExtEdges(spec.State(st))
		d.Int[st] = x.IntEdges(spec.State(st))
	}
	return spec.FromDense(d)
}
