package engine

import (
	"math/rand"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/protocols"
	"protoquot/internal/spec"
)

func TestRunnerStepAndEnabled(t *testing.T) {
	s := protocols.Service()
	r := New(s, rand.New(rand.NewSource(1)))
	moves := r.Enabled()
	if len(moves) != 1 || moves[0].Event != "acc" {
		t.Fatalf("Enabled = %v", moves)
	}
	if err := r.Step(moves[0]); err != nil {
		t.Fatal(err)
	}
	if r.StateName() != "v1" {
		t.Errorf("state = %s, want v1", r.StateName())
	}
	// Illegal moves are rejected.
	if err := r.Step(Move{Event: "acc", To: 0}); err == nil {
		t.Error("illegal external move accepted")
	}
	if err := r.Step(Move{To: 0}); err == nil {
		t.Error("illegal internal move accepted")
	}
}

func TestWalkAlternatingService(t *testing.T) {
	s := protocols.Service()
	r := New(s, rand.New(rand.NewSource(2)))
	res := r.Walk(100)
	if res.Deadlocked {
		t.Error("service never deadlocks")
	}
	if res.Steps != 100 || len(res.Trace) != 100 {
		t.Errorf("steps=%d trace=%d", res.Steps, len(res.Trace))
	}
	for i, e := range res.Trace {
		want := spec.Event("acc")
		if i%2 == 1 {
			want = "del"
		}
		if e != want {
			t.Fatalf("trace[%d] = %s, want %s", i, e, want)
		}
	}
}

// The AB system run under the fair scheduler delivers messages despite
// losses: every walk's trace alternates acc/del and both keep happening.
func TestWalkABSystem(t *testing.T) {
	sys := protocols.ABSystem()
	r := New(sys, rand.New(rand.NewSource(3)))
	res := r.Walk(30000)
	if res.Deadlocked {
		t.Fatalf("AB system deadlocked at %s after %v", res.FinalState, res.Trace)
	}
	accs, dels := res.EventCount["acc"], res.EventCount["del"]
	if accs < 10 || dels < 10 {
		t.Errorf("too little progress under fairness: acc=%d del=%d internal=%d",
			accs, dels, res.InternalSteps)
	}
	if accs-dels > 1 || dels > accs {
		t.Errorf("alternation violated: acc=%d del=%d", accs, dels)
	}
	if res.InternalSteps == 0 {
		t.Error("expected internal (loss/forward) activity")
	}
}

// The fairness bias must not starve internal moves: on a spec where only an
// aging internal move leads anywhere, the walk still progresses.
func TestWalkFairness(t *testing.T) {
	b := spec.NewBuilder("f")
	b.Init("a").Ext("a", "spin", "a").Int("a", "b").Ext("b", "done", "b")
	s := b.MustBuild()
	r := New(s, rand.New(rand.NewSource(4)))
	res := r.Walk(5000)
	if res.EventCount["done"] == 0 {
		t.Error("fair scheduler never took the internal escape")
	}
}

func TestWalkDeadlock(t *testing.T) {
	b := spec.NewBuilder("d")
	b.Init("a").Ext("a", "x", "end")
	s := b.MustBuild()
	r := New(s, rand.New(rand.NewSource(5)))
	res := r.Walk(10)
	if !res.Deadlocked || res.FinalState != "end" {
		t.Errorf("expected deadlock at end: %+v", res)
	}
}

func TestReset(t *testing.T) {
	s := protocols.Service()
	r := New(s, rand.New(rand.NewSource(6)))
	r.Walk(7)
	r.Reset()
	if r.State() != s.Init() {
		t.Error("Reset did not return to init")
	}
}

func TestFindDeadlock(t *testing.T) {
	b := spec.NewBuilder("d")
	b.Init("a").Ext("a", "x", "b").Int("b", "c") // c has nothing
	s := b.MustBuild()
	trace, state, ok := FindDeadlock(s)
	if !ok || state != "c" {
		t.Fatalf("FindDeadlock = %v,%s,%v", trace, state, ok)
	}
	if len(trace) != 1 || trace[0] != "x" {
		t.Errorf("witness = %v, want [x]", trace)
	}
	if _, _, ok := FindDeadlock(protocols.ABSystem()); ok {
		t.Error("AB system should be deadlock-free")
	}
}

func TestFindLivelock(t *testing.T) {
	b := spec.NewBuilder("l")
	b.Init("a").Ext("a", "x", "p").Int("p", "q").Int("q", "p")
	s := b.MustBuild()
	state, ok := FindLivelock(s)
	if !ok {
		t.Fatal("livelock not found")
	}
	if state != "p" && state != "q" {
		t.Errorf("state = %s", state)
	}
	if _, ok := FindLivelock(protocols.ABSystem()); ok {
		t.Error("AB system should be livelock-free")
	}
}

func TestCheckInvariant(t *testing.T) {
	sys := protocols.ABSystem()
	// Invariant that holds: every state has some enabled move (no
	// deadlock), phrased as an invariant.
	if tr, state, bad := CheckInvariant(sys, func(s System, st spec.State) bool {
		return len(s.ExtEdges(st)) > 0 || len(s.IntEdges(st)) > 0
	}); bad {
		t.Errorf("unexpected violation at %s via %v", state, tr)
	}
	// Invariant that fails with a shortest witness: "the AB sender never
	// leaves its initial state" is false after one acc.
	tr, state, bad := CheckInvariant(sys, func(s System, st spec.State) bool {
		name := s.StateName(st)
		return name[:2] == "s0"
	})
	if !bad {
		t.Fatal("expected a violation")
	}
	if len(tr) != 1 || tr[0] != "acc" {
		t.Errorf("witness = %v (at %s), want [acc]", tr, state)
	}
}

// End-to-end: run the derived co-located converter inside the full system
// and watch it deliver. This is the simulation counterpart of E9.
func TestWalkDerivedConverterSystem(t *testing.T) {
	b := protocols.ColocatedB()
	res, err := core.Derive(protocols.Service(), b, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatal(err)
	}
	sys := compose.Pair(b, res.Converter)
	r := New(sys, rand.New(rand.NewSource(7)))
	w := r.Walk(30000)
	if w.Deadlocked {
		t.Fatalf("conversion system deadlocked at %s", w.FinalState)
	}
	if w.EventCount["acc"] < 5 || w.EventCount["del"] < 5 {
		t.Errorf("conversion system made too little progress: %v", w.EventCount)
	}
	if w.EventCount["del"] > w.EventCount["acc"] {
		t.Error("delivered more than accepted — exactly-once broken")
	}
}

// TestRunnerOverIndexedComposition drives the engine from the demand-driven
// index-space composition (compose.Lazy) without materializing a
// *spec.Spec: the System interface is the contract that makes that
// possible. Walk traces are not
// required to match the eager composition move for move (edge sort orders
// use each representation's own state numbering), so the assertions are
// representation-independent: liveness of the walk, exactly-once semantics,
// and agreement on deadlock freedom.
func TestRunnerOverIndexedComposition(t *testing.T) {
	x := compose.MustLazyMany(protocols.ABSender(), protocols.ABChannel(), protocols.ABReceiver())
	r := New(x, rand.New(rand.NewSource(1989)))
	w := r.Walk(20000)
	if w.Deadlocked {
		t.Fatalf("lazy AB system deadlocked at %s", w.FinalState)
	}
	if w.EventCount["acc"] < 5 || w.EventCount["del"] < 5 {
		t.Errorf("lazy AB system made too little progress: %v", w.EventCount)
	}
	if w.EventCount["del"] > w.EventCount["acc"] {
		t.Error("delivered more than accepted — exactly-once broken")
	}
	if _, st, found := FindDeadlock(x); found {
		t.Errorf("FindDeadlock over lazy composition found %s; eager system is deadlock-free", st)
	}
	if tr, st, bad := CheckInvariant(x, func(s System, st spec.State) bool {
		return len(s.ExtEdges(st))+len(s.IntEdges(st)) > 0
	}); bad {
		t.Errorf("invariant violated at %s via %v", st, tr)
	}
}
