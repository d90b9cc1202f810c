package compose

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"protoquot/internal/spec"
)

// namedMachine is the read-side surface namedListing needs; *spec.Spec and
// *Lazy both satisfy it.
type namedMachine interface {
	Name() string
	NumStates() int
	Init() spec.State
	Alphabet() []spec.Event
	ExtEdges(spec.State) []spec.ExtEdge
	IntEdges(spec.State) []spec.State
	StateName(spec.State) string
}

// namedListing renders a machine as its sorted set of named transitions
// plus header lines — a canonical form that is invariant under state
// renumbering, which is exactly the freedom the index-space composition
// has relative to the left fold. It re-reads NumStates every iteration, and
// a Lazy's ExtEdges/IntEdges expand on demand, so walking a Lazy's listing
// saturates the product.
func namedListing(m namedMachine) string {
	var lines []string
	for st := 0; st < m.NumStates(); st++ {
		from := m.StateName(spec.State(st))
		for _, ed := range m.ExtEdges(spec.State(st)) {
			lines = append(lines, fmt.Sprintf("%s -%s-> %s", from, ed.Event, m.StateName(ed.To)))
		}
		for _, t := range m.IntEdges(spec.State(st)) {
			lines = append(lines, fmt.Sprintf("%s --> %s", from, m.StateName(t)))
		}
	}
	sort.Strings(lines)
	evs := make([]string, len(m.Alphabet()))
	for i, e := range m.Alphabet() {
		evs[i] = string(e)
	}
	header := []string{
		"name " + m.Name(),
		"init " + m.StateName(m.Init()),
		"events " + strings.Join(evs, " "),
		fmt.Sprintf("states %d", m.NumStates()),
	}
	return strings.Join(append(header, lines...), "\n")
}

// assertLazyMatchesMany saturates a demand-driven composition and asserts
// it is name-isomorphic to the left fold Many over the same components:
// same composite name, init name, alphabet and state count, and the same
// set of named transitions. Lazy state ids follow demand order, so the
// comparison goes through namedListing.
func assertLazyMatchesMany(t *testing.T, comps ...*spec.Spec) *Lazy {
	t.Helper()
	eager, err := Many(comps...)
	if err != nil {
		t.Fatalf("Many: %v", err)
	}
	lz, err := LazyMany(comps...)
	if err != nil {
		t.Fatalf("LazyMany: %v", err)
	}
	if got, want := namedListing(lz), namedListing(eager); got != want {
		t.Fatalf("lazy composition differs from eager fold\n--- lazy ---\n%.2000s\n--- eager ---\n%.2000s", got, want)
	}
	exp, disc, _ := lz.ExpansionStats()
	if exp != disc || disc != eager.NumStates() {
		t.Fatalf("saturated lazy stats = %d expanded / %d discovered, want both = %d reachable",
			exp, disc, eager.NumStates())
	}
	// The materialized Spec must agree with the Lazy view it came from.
	ls, err := lz.Spec()
	if err != nil {
		t.Fatalf("Lazy.Spec: %v", err)
	}
	if got, want := namedListing(ls), namedListing(lz); got != want {
		t.Fatalf("materialized Spec differs from Lazy view\n--- spec ---\n%.2000s\n--- lazy ---\n%.2000s", got, want)
	}
	return lz
}

func chanSpec(name, send, recv string) *spec.Spec {
	b := spec.NewBuilder(name)
	b.Init("e").Ext("e", spec.Event(send), "f").Ext("f", spec.Event(recv), "e")
	return b.MustBuild()
}

// basicSystems is a sender alone, a sender with its channel, and a sender
// and receiver joined by two channels.
func basicSystems() [][]*spec.Spec {
	snd := spec.NewBuilder("snd")
	snd.Init("s0").Ext("s0", "acc", "s1").Ext("s1", "-x", "s0")
	rcv := spec.NewBuilder("rcv")
	rcv.Init("r0").Ext("r0", "+y", "r1").Ext("r1", "del", "r0")
	return [][]*spec.Spec{
		{snd.MustBuild()},
		{snd.MustBuild(), chanSpec("C", "-x", "+x")},
		{snd.MustBuild(), chanSpec("C", "-x", "+x"), chanSpec("D", "-y", "+y"), rcv.MustBuild()},
	}
}

// randomSystem draws a chain of 2–4 random components wired through fresh
// channel alphabets.
func randomSystem(rng *rand.Rand) []*spec.Spec {
	k := 2 + rng.Intn(3)
	comps := make([]*spec.Spec, k)
	for i := range comps {
		b := spec.NewBuilder(fmt.Sprintf("m%d", i))
		n := 2 + rng.Intn(3)
		for s := 0; s < n; s++ {
			b.State(fmt.Sprintf("q%d", s))
		}
		b.Init("q0")
		// Private events.
		for s := 0; s < n; s++ {
			if rng.Intn(2) == 0 {
				b.Ext(fmt.Sprintf("q%d", s), spec.Event(fmt.Sprintf("p%d.%d", i, s)), fmt.Sprintf("q%d", rng.Intn(n)))
			}
			if rng.Intn(3) == 0 {
				b.Int(fmt.Sprintf("q%d", s), fmt.Sprintf("q%d", rng.Intn(n)))
			}
		}
		// Shared events with the next component (pairwise-disjoint by
		// construction: event i.j names occur only in components i, i+1).
		if i > 0 {
			b.Ext("q0", spec.Event(fmt.Sprintf("link%d", i)), fmt.Sprintf("q%d", rng.Intn(n)))
		}
		if i < k-1 {
			b.Ext(fmt.Sprintf("q%d", rng.Intn(n)), spec.Event(fmt.Sprintf("link%d", i+1)), "q0")
		}
		comps[i] = b.MustBuild()
	}
	return comps
}

// TestIndexedMatchesManyBasic checks the index-space composition (LazyMany)
// against the left fold on a sender, channels and a receiver.
func TestIndexedMatchesManyBasic(t *testing.T) {
	for _, comps := range basicSystems() {
		if lz := assertLazyMatchesMany(t, comps...); lz.Init() != 0 {
			t.Errorf("lazy init = %d, want 0", lz.Init())
		}
	}
}

// TestLazyMatchesIndexedBasic materializes a fresh, unexpanded Lazy
// directly through Spec — which must saturate the product on its own — and
// compares the result with the left fold.
func TestLazyMatchesIndexedBasic(t *testing.T) {
	for _, comps := range basicSystems() {
		eager, err := Many(comps...)
		if err != nil {
			t.Fatalf("Many: %v", err)
		}
		lz := MustLazyMany(comps...)
		if exp, _, _ := lz.ExpansionStats(); exp != 0 {
			t.Fatalf("fresh lazy expanded %d states before any demand", exp)
		}
		ls, err := lz.Spec()
		if err != nil {
			t.Fatalf("Lazy.Spec: %v", err)
		}
		if got, want := namedListing(ls), namedListing(eager); got != want {
			t.Fatalf("materialized lazy composition differs from eager fold\n--- lazy ---\n%.2000s\n--- eager ---\n%.2000s", got, want)
		}
		if ls.Init() != 0 {
			t.Errorf("materialized init = %d, want 0", ls.Init())
		}
	}
}

// TestIndexedMatchesManyInternalMoves covers component-internal transitions
// and internal self-loops surviving the product.
func TestIndexedMatchesManyInternalMoves(t *testing.T) {
	a := spec.NewBuilder("A")
	a.Init("a0").Ext("a0", "go", "a1").Int("a1", "a2").Int("a2", "a2").Ext("a2", "-m", "a0")
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "+m", "b1").Int("b1", "b0")
	assertLazyMatchesMany(t, a.MustBuild(), chanSpec("M", "-m", "+m"), b.MustBuild())
}

// TestIndexedMatchesManyRandom is the differential sweep: random component
// systems wired through fresh channel alphabets, demand-driven vs folded.
func TestIndexedMatchesManyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		assertLazyMatchesMany(t, randomSystem(rng)...)
	}
}

// TestLazyMatchesIndexedRandom is a second differential sweep on another
// seed, mirroring TestIndexedMatchesManyRandom.
func TestLazyMatchesIndexedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		assertLazyMatchesMany(t, randomSystem(rng)...)
	}
}

// TestIndexedManyRejectsTripleSharing checks the index-space composition
// refuses an event shared by three components with the same error as the
// reference's interface check, and accepts it when only two share it.
func TestIndexedManyRejectsTripleSharing(t *testing.T) {
	mk := func(name string) *spec.Spec {
		b := spec.NewBuilder(name)
		b.Init("s").Ext("s", "shared", "s")
		return b.MustBuild()
	}
	triple := []*spec.Spec{mk("a"), mk("b"), mk("c")}
	_, err := LazyMany(triple...)
	if err == nil {
		t.Fatal("expected pairwise-interface error")
	}
	want := CheckPairwiseInterfaces(triple...)
	if want == nil || err.Error() != want.Error() {
		t.Fatalf("LazyMany error = %q, want the interface check's %v", err, want)
	}
	if _, err := Many(triple...); err == nil {
		t.Fatal("reference Many accepted triple sharing")
	}
	if _, err := LazyMany(mk("a"), mk("b")); err != nil {
		t.Fatalf("two-way sharing rejected: %v", err)
	}
}

// TestIndexedLazyNames checks the index-space composition materializes
// state names only on demand and keeps them stable across repeated queries.
func TestIndexedLazyNames(t *testing.T) {
	snd := spec.NewBuilder("snd")
	snd.Init("s0").Ext("s0", "acc", "s1").Ext("s1", "-x", "s0")
	x := MustLazyMany(snd.MustBuild(), chanSpec("C", "-x", "+x"))
	n1 := x.StateName(x.Init())
	n2 := x.StateName(x.Init())
	if n1 != n2 || n1 != "s0|e" {
		t.Fatalf("StateName(init) = %q / %q, want stable \"s0|e\"", n1, n2)
	}
}

func TestLazyManyRejectsBadInputs(t *testing.T) {
	mk := func(name string) *spec.Spec {
		b := spec.NewBuilder(name)
		b.Init("s").Ext("s", "shared", "s")
		return b.MustBuild()
	}
	if _, err := LazyMany(mk("a"), mk("b"), mk("c")); err == nil {
		t.Fatal("expected pairwise-interface error")
	}
	if _, err := LazyMany(); err == nil {
		t.Fatal("expected error for empty component list")
	}
}

// TestLazyPeekRowsDoesNotExpand pins the non-expanding read: PeekRows on a
// discovered-but-unexpanded state reports absence and leaves the expansion
// counter untouched.
func TestLazyPeekRowsDoesNotExpand(t *testing.T) {
	snd := spec.NewBuilder("snd")
	snd.Init("s0").Ext("s0", "acc", "s1").Ext("s1", "-x", "s0")
	lz := MustLazyMany(snd.MustBuild(), chanSpec("C", "-x", "+x"))
	if _, _, ok := lz.PeekRows(lz.Init()); ok {
		t.Fatal("init state reported expanded before any Rows call")
	}
	ext, intl := lz.Rows(lz.Init())
	exp, disc, _ := lz.ExpansionStats()
	if exp != 1 || disc < 2 {
		t.Fatalf("after one Rows call: expanded=%d discovered=%d, want 1 and ≥2", exp, disc)
	}
	for st := 1; st < disc; st++ {
		if _, _, ok := lz.PeekRows(spec.State(st)); ok {
			t.Fatalf("frontier state %d reported expanded", st)
		}
	}
	if exp2, _, _ := lz.ExpansionStats(); exp2 != 1 {
		t.Fatalf("PeekRows expanded states: counter went 1 → %d", exp2)
	}
	// Rows must be idempotent and stable.
	ext2, intl2 := lz.Rows(lz.Init())
	if &ext[0] != &ext2[0] || len(intl) != len(intl2) {
		t.Fatal("repeated Rows returned a different published row")
	}
}

// TestLazyConcurrentRows hammers concurrent first-demand expansion: many
// goroutines racing to expand overlapping frontiers must agree on every row
// (the race detector checks the publication protocol).
func TestLazyConcurrentRows(t *testing.T) {
	comps := []*spec.Spec{}
	prev := ""
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("n%d", i)
		b := spec.NewBuilder(name)
		b.Init("u").Ext("u", spec.Event("go"+name), "v").Int("v", "u")
		if prev != "" {
			b.Ext("u", spec.Event("l"+prev), "v")
		}
		if i < 4 {
			b.Ext("v", spec.Event("l"+name), "u")
		}
		prev = name
		comps = append(comps, b.MustBuild())
	}
	lz := MustLazyMany(comps...)
	ref, err := Many(comps...)
	if err != nil {
		t.Fatalf("Many: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := lz.NumStates()
				st := spec.State(rng.Intn(n))
				ext, intl := lz.Rows(st)
				// Re-read: published rows must be identical slices.
				ext2, intl2 := lz.Rows(st)
				if len(ext) != len(ext2) || len(intl) != len(intl2) {
					t.Errorf("row of %d changed between reads", st)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got, want := namedListing(lz), namedListing(ref); got != want {
		t.Fatalf("lazy product after concurrent hammering differs from eager fold\n--- lazy ---\n%.2000s\n--- eager ---\n%.2000s", got, want)
	}
}
