package spec_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"protoquot/internal/dsl"
	"protoquot/internal/protocols"
	"protoquot/internal/spec"
)

// builderTrim is the Builder-based Trim that the integer renumbering
// replaced, kept as the reference: replay the reachable states into a
// fresh Builder, the initial state first, then each state in index order
// followed by its reachable external and internal targets.
func builderTrim(s *spec.Spec) *spec.Spec {
	b := spec.NewBuilder(s.Name())
	for _, e := range s.Alphabet() {
		b.Event(e)
	}
	b.Init(s.StateName(s.Init()))
	for i := 0; i < s.NumStates(); i++ {
		st := spec.State(i)
		if !s.IsReachable(st) {
			continue
		}
		b.State(s.StateName(st))
		for _, ed := range s.ExtEdges(st) {
			if s.IsReachable(ed.To) {
				b.Ext(s.StateName(st), ed.Event, s.StateName(ed.To))
			}
		}
		for _, t := range s.IntEdges(st) {
			if s.IsReachable(t) {
				b.Int(s.StateName(st), s.StateName(t))
			}
		}
	}
	return b.MustBuild()
}

// builderReplay replays every state and edge of s into a fresh Builder in
// the same order, without trimming: the Builder half of what
// spec.BuildTrimmed stands for.
func builderReplay(s *spec.Spec) *spec.Spec {
	b := spec.NewBuilder(s.Name())
	for _, e := range s.Alphabet() {
		b.Event(e)
	}
	b.Init(s.StateName(s.Init()))
	for i := 0; i < s.NumStates(); i++ {
		st := spec.State(i)
		b.State(s.StateName(st))
		for _, ed := range s.ExtEdges(st) {
			b.Ext(s.StateName(st), ed.Event, s.StateName(ed.To))
		}
		for _, t := range s.IntEdges(st) {
			b.Int(s.StateName(st), s.StateName(t))
		}
	}
	return b.MustBuild()
}

// denseOf lays s out as a spec.Dense over its own numbering.
func denseOf(s *spec.Spec) spec.Dense {
	d := spec.Dense{
		Name:     s.Name(),
		Init:     s.Init(),
		Alphabet: s.Alphabet(),
	}
	for i := 0; i < s.NumStates(); i++ {
		st := spec.State(i)
		d.StateNames = append(d.StateNames, s.StateName(st))
		d.Ext = append(d.Ext, s.ExtEdges(st))
		d.Int = append(d.Int, s.IntEdges(st))
	}
	return d
}

// sameSpec reports how got differs from want in Format, Hash or state
// numbering, or "" when it does not.
func sameSpec(got, want *spec.Spec) string {
	if got.NumStates() != want.NumStates() || got.Init() != want.Init() {
		return fmt.Sprintf("%d states, init %d; want %d states, init %d",
			got.NumStates(), got.Init(), want.NumStates(), want.Init())
	}
	for i := 0; i < got.NumStates(); i++ {
		if g, w := got.StateName(spec.State(i)), want.StateName(spec.State(i)); g != w {
			return fmt.Sprintf("state %d is %q, want %q", i, g, w)
		}
	}
	if g, w := got.Format(), want.Format(); g != w {
		return fmt.Sprintf("Format differs:\n%s--- want ---\n%s", g, w)
	}
	if g, w := got.Hash(), want.Hash(); g != w {
		return fmt.Sprintf("Hash %s, want %s", g, w)
	}
	return ""
}

// trimCorpus gathers the specs the Trim differential runs over: every
// specs/*.spec, the protocols library, the FuzzCanonical seeds and corpus,
// and random specs with nondeterminism, λ-edges and unreachable states.
func trimCorpus(t *testing.T) map[string]*spec.Spec {
	t.Helper()
	corpus := map[string]*spec.Spec{}
	addText := func(name, text string) {
		specs, err := dsl.Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		for i, s := range specs {
			corpus[fmt.Sprintf("%s#%d", name, i)] = s
		}
	}

	files, err := filepath.Glob("../../specs/*.spec")
	if err != nil || len(files) == 0 {
		t.Fatalf("no specs/*.spec found (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		addText(filepath.Base(f), string(data))
	}

	must := func(s *spec.Spec, err error) *spec.Spec {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	lib := map[string]*spec.Spec{
		"ABSender":              protocols.ABSender(),
		"ABReceiver":            protocols.ABReceiver(),
		"ABSystem":              protocols.ABSystem(),
		"ABChannel":             protocols.ABChannel(),
		"NSChannel":             protocols.NSChannel(),
		"NSSender":              protocols.NSSender(),
		"NSReceiver":            protocols.NSReceiver(),
		"NSSystem":              protocols.NSSystem(),
		"SymmetricB":            protocols.SymmetricB(),
		"ReliableNSB":           protocols.ReliableNSB(),
		"ReliableNSBLossFree":   protocols.ReliableNSBLossFree(),
		"ReliableNSBBounded2":   protocols.ReliableNSBBounded(2),
		"EventuallyReliableNSB": protocols.EventuallyReliableNSB(),
		"ColocatedB":            protocols.ColocatedB(),
		"Service":               protocols.Service(),
		"AtLeastOnceService":    protocols.AtLeastOnceService(),
		"Fig4":                  protocols.Fig4(),
		"LaneSystem2":           protocols.LaneSystem(2),
		"CST":                   protocols.CST(),
		"CSTConcat":             protocols.CSTConcat(),
		"TransportA":            protocols.TransportA(),
		"TransportB":            protocols.TransportB(),
		"NetA":                  protocols.NetA(true),
		"NetB":                  protocols.NetB(),
		"TransportB17":          protocols.TransportB17(),
		"TransportB18":          protocols.TransportB18(),
		"PassThrough":           protocols.PassThrough(),
		"WindowService3":        protocols.WindowService(3),
		"SeqSystem3":            must(protocols.SeqSystem(3)),
		"CrossSeqB23":           must(protocols.CrossSeqB(2, 3)),
		"WindowToNSB":           must(protocols.WindowToNSB(protocols.WindowConfig{Window: 2, Modulus: 3})),
	}
	for name, s := range lib {
		corpus["protocols."+name] = s
	}

	for i, seed := range []string{
		"spec S\ninit v0\next v0 acc v1\next v1 del v0\n",
		"spec X\nint a b\nint b a\nevent z\nevent a\n",
		"spec A\nstate s1 s0\ninit s1\next s0 -d0 s1\next s0 +d1 s0\n",
		"spec ok\ninit a\n\nspec two\ninit b\next b e b\nint b b\n",
		"spec d\nstate z y x\ninit x\nevent e2 e1\next x e1 y\next x e1 z\n",
	} {
		addText(fmt.Sprintf("fuzz-seed-%d", i), seed)
	}
	entries, err := filepath.Glob("testdata/fuzz/FuzzCanonical/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range entries {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				if text, err := strconv.Unquote(strings.TrimSuffix(arg, ")")); err == nil {
					addText(filepath.Base(f), text)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		corpus[fmt.Sprintf("random-%d", i)] = randomSpec(rng)
	}
	return corpus
}

// randomSpec builds a small spec whose states are mentioned in a shuffled
// order (so Builder numbering differs from name order), with duplicate-event
// edges, λ-edges (cycles and self-loops included) and states left
// unreachable from the initial one.
func randomSpec(rng *rand.Rand) *spec.Spec {
	n := 1 + rng.Intn(9)
	events := []spec.Event{"a", "b", "c", "-d0", "+d0"}
	b := spec.NewBuilder(fmt.Sprintf("R%d", n))
	for _, e := range events[:1+rng.Intn(len(events))] {
		b.Event(e)
	}
	name := func(i int) string { return fmt.Sprintf("s%d", i) }
	for _, i := range rng.Perm(n) {
		b.State(name(i))
	}
	b.Init(name(rng.Intn(n)))
	for k := rng.Intn(3 * n); k > 0; k-- {
		b.Ext(name(rng.Intn(n)), events[rng.Intn(len(events))], name(rng.Intn(n)))
	}
	for k := rng.Intn(n + 1); k > 0; k-- {
		b.Int(name(rng.Intn(n)), name(rng.Intn(n)))
	}
	return b.MustBuild()
}

// TestTrimMatchesBuilderReference is the Trim differential: over the whole
// corpus, the integer Trim must give the same state numbering, Format and
// Hash as the Builder replay it replaced, and BuildTrimmed over a spec's
// own layout must equal replaying it into a Builder and trimming that.
func TestTrimMatchesBuilderReference(t *testing.T) {
	corpus := trimCorpus(t)
	var nondet, lambda, unreachable int
	for name, s := range corpus {
		if !s.DeterministicExternal() {
			nondet++
		}
		if s.NumInternalTransitions() > 0 {
			lambda++
		}
		if len(s.Reachable()) < s.NumStates() {
			unreachable++
		}
		if diff := sameSpec(s.Trim(), builderTrim(s)); diff != "" {
			t.Errorf("%s: Trim: %s", name, diff)
		}
		got, err := spec.BuildTrimmed(denseOf(s))
		if err != nil {
			t.Errorf("%s: BuildTrimmed: %v", name, err)
			continue
		}
		if diff := sameSpec(got, builderTrim(builderReplay(s))); diff != "" {
			t.Errorf("%s: BuildTrimmed: %s", name, diff)
		}
	}
	if nondet == 0 || lambda == 0 || unreachable == 0 {
		t.Fatalf("corpus of %d lacks a kind: %d nondeterministic, %d with λ-edges, %d with unreachable states",
			len(corpus), nondet, lambda, unreachable)
	}
}

// TestBuildTrimmedKeepsFromDenseChecks: BuildTrimmed validates its input
// exactly as FromDense does.
func TestBuildTrimmedKeepsFromDenseChecks(t *testing.T) {
	ok := spec.Dense{
		Name:       "D",
		StateNames: []string{"x", "y"},
		Alphabet:   []spec.Event{"e"},
		Ext:        [][]spec.ExtEdge{{{Event: "e", To: 1}}},
	}
	bad := map[string]func(d *spec.Dense){
		"empty":          func(d *spec.Dense) { d.StateNames = nil },
		"init range":     func(d *spec.Dense) { d.Init = 2 },
		"duplicate name": func(d *spec.Dense) { d.StateNames = []string{"x", "x"} },
		"edge range":     func(d *spec.Dense) { d.Ext = [][]spec.ExtEdge{{{Event: "e", To: 5}}} },
		"event":          func(d *spec.Dense) { d.Ext = [][]spec.ExtEdge{{{Event: "f", To: 1}}} },
		"int range":      func(d *spec.Dense) { d.Int = [][]spec.State{{-1}} },
		"dup event":      func(d *spec.Dense) { d.Alphabet = []spec.Event{"e", "e"} },
	}
	if _, err := spec.BuildTrimmed(ok); err != nil {
		t.Fatalf("valid Dense rejected: %v", err)
	}
	for name, mutate := range bad {
		d := ok
		mutate(&d)
		_, want := spec.FromDense(d)
		_, got := spec.BuildTrimmed(d)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: BuildTrimmed error %v, FromDense error %v", name, got, want)
		}
	}
}
