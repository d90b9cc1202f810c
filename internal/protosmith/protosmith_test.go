package protosmith

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/specgen"
)

// existsVerdict is the injected-divergence predicate used by the shrinker
// tests: it plays the role of "this system still reproduces the bug" for a
// hypothetical engine defect on every system whose quotient exists.
func existsVerdict(s *System) bool {
	if s.Validate() != nil {
		return false
	}
	b, err := compose.Many(s.Components...)
	if err != nil {
		return false
	}
	res, derr := core.Derive(s.Service, b, core.Options{OmitVacuous: true})
	return derr == nil && res.Exists
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, 999} {
		x := Generate(seed, DefaultKnobs())
		y := Generate(seed, DefaultKnobs())
		if !bytes.Equal(x.Service.Canonical(), y.Service.Canonical()) {
			t.Fatalf("seed %d: service differs between runs", seed)
		}
		if len(x.Components) != len(y.Components) {
			t.Fatalf("seed %d: component count differs", seed)
		}
		for i := range x.Components {
			if !bytes.Equal(x.Components[i].Canonical(), y.Components[i].Canonical()) {
				t.Fatalf("seed %d: component %d differs between runs", seed, i)
			}
		}
	}
}

func TestGeneratedSystemsAreWellFormed(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		sys := Generate(seed, DefaultKnobs())
		if err := sys.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGenerateCoversBothVerdicts(t *testing.T) {
	// The knobs are tuned so a modest corpus contains systems with and
	// without a quotient; a generator collapse to one verdict would gut the
	// differential harness.
	var exists, missing bool
	for seed := int64(1); seed <= 60 && !(exists && missing); seed++ {
		if existsVerdict(Generate(seed, DefaultKnobs())) {
			exists = true
		} else {
			missing = true
		}
	}
	if !exists || !missing {
		t.Fatalf("60 seeds produced exists=%v missing=%v; want both", exists, missing)
	}
}

func TestCampaignIsDeterministic(t *testing.T) {
	run := func() string {
		return Campaign{Seed: 7, Count: 25, Knobs: DefaultKnobs()}.Run().String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical campaigns produced different reports:\n%s\n----\n%s", a, b)
	}
}

func TestCampaignSmoke(t *testing.T) {
	rep := Campaign{Seed: 1, Count: 60, Knobs: DefaultKnobs()}.Run()
	if len(rep.Failures) != 0 {
		t.Fatalf("unexpected divergences:\n%s", rep)
	}
	// Per system: the spec and lazy pipelines, plus the robust leg.
	if rep.Systems != 60 || rep.EngineRuns != 60*3 {
		t.Errorf("campaign underran: %d systems, %d engine runs", rep.Systems, rep.EngineRuns)
	}
	if rep.OracleSafetyProbes == 0 || rep.BaselineProbes == 0 {
		t.Errorf("oracles did not engage: %+v", rep)
	}
}

func TestCheckFlagsMalformedSystem(t *testing.T) {
	sys := Generate(1, DefaultKnobs())
	// Orphan a service event: no component owns it, so Σ_A ⊄ Σ_B.
	sys.Service = sys.Service.WithEvents("zz.orphan")
	r := Check(sys, CheckOptions{})
	if r.Divergence == nil || r.Divergence.Leg != "wellformed" {
		t.Fatalf("malformed system not flagged as wellformed divergence: %+v", r.Divergence)
	}
}

func TestShrinkReducesInjectedDivergenceToTinySystem(t *testing.T) {
	// Inject a divergence predicate — "engine wrongly flags every system
	// whose quotient exists" — and require the shrinker to pull an
	// arbitrary failing system down to at most 5 states per machine.
	var sys *System
	for seed := int64(1); seed <= 200; seed++ {
		if s := Generate(seed, DefaultKnobs()); existsVerdict(s) {
			sys = s
			break
		}
	}
	if sys == nil {
		t.Fatal("no exists-verdict system in 200 seeds")
	}
	shrunk := Shrink(sys, existsVerdict)
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("shrunk system is malformed: %v", err)
	}
	if !existsVerdict(shrunk) {
		t.Fatal("shrinking lost the injected divergence")
	}
	if shrunk.Size() >= sys.Size() {
		t.Errorf("no reduction: %d -> %d", sys.Size(), shrunk.Size())
	}
	if n := shrunk.Service.NumStates(); n > 5 {
		t.Errorf("shrunk service still has %d states (want <= 5)", n)
	}
	for i, c := range shrunk.Components {
		if n := c.NumStates(); n > 5 {
			t.Errorf("shrunk component %d still has %d states (want <= 5)", i, n)
		}
	}
}

func TestShrinkPreservesDivergenceLeg(t *testing.T) {
	// End to end through the campaign: a harness-level predicate (not the
	// simplified existsVerdict) must survive shrinking with the same leg.
	var sys *System
	for seed := int64(1); seed <= 100; seed++ {
		if s := Generate(seed, DefaultKnobs()); existsVerdict(s) {
			sys = s
			break
		}
	}
	failing := func(s *System) bool {
		r := Check(s, CheckOptions{})
		return r.Divergence == nil && r.Exists
	}
	shrunk := Shrink(sys, failing)
	if !failing(shrunk) {
		t.Fatal("predicate lost during shrink")
	}
	if shrunk.Size() >= sys.Size() {
		t.Errorf("no reduction: %d -> %d", sys.Size(), shrunk.Size())
	}
}

func TestFixtureRoundTrip(t *testing.T) {
	sys := Generate(11, DefaultKnobs())
	dir := t.TempDir()
	path, err := WriteFixture(dir, sys, "unit-test note\nsecond line")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "seed11.spec" {
		t.Errorf("fixture name: %s", path)
	}
	got, err := LoadFixture(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 11 {
		t.Errorf("seed not recovered from header: %d", got.Seed)
	}
	if !bytes.Equal(got.Service.Canonical(), sys.Service.Canonical()) {
		t.Error("service did not round-trip")
	}
	if len(got.Components) != len(sys.Components) {
		t.Fatalf("component count did not round-trip: %d vs %d", len(got.Components), len(sys.Components))
	}
	for i := range got.Components {
		if !bytes.Equal(got.Components[i].Canonical(), sys.Components[i].Canonical()) {
			t.Errorf("component %d did not round-trip", i)
		}
	}
	if err := got.Validate(); err != nil {
		t.Errorf("loaded fixture invalid: %v", err)
	}
}

func TestRegisteredFamilies(t *testing.T) {
	// randwedge(293005)'s seed scan passes a candidate whose safety phase
	// runs past familyMaxStates; the bound must skip it promptly.
	for _, name := range []string{"rand(3)", "rand(17)", "randwedge(5)", "randwedge(293005)"} {
		f1, err := specgen.ParseFamily(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f2, _ := specgen.ParseFamily(name)
		if !bytes.Equal(f1.Service.Canonical(), f2.Service.Canonical()) {
			t.Errorf("%s: service not deterministic", name)
		}
		if f1.Name != name {
			t.Errorf("family name %q != instance name %q", f1.Name, name)
		}
		sys := &System{Service: f1.Service, Components: f1.Components}
		if err := sys.Validate(); err != nil {
			t.Errorf("%s: malformed family: %v", name, err)
		}
		// Registered instances promise a derivable quotient, so bench and
		// load consumers always measure a real derivation.
		if !existsVerdict(sys) {
			t.Errorf("%s: family quotient does not exist", name)
		}
	}
}

func TestParseKnobs(t *testing.T) {
	k, err := ParseKnobs(DefaultKnobs(), "components=2,taubias=0.125,maxstates=9")
	if err != nil {
		t.Fatal(err)
	}
	if k.Components != 2 || k.TauBias != 0.125 || k.MaxStates != 9 {
		t.Errorf("overlay not applied: %+v", k)
	}
	if k.ServiceEvents != DefaultKnobs().ServiceEvents {
		t.Error("unrelated knob disturbed")
	}
	if _, err := ParseKnobs(DefaultKnobs(), "nosuchknob=3"); err == nil {
		t.Error("unknown knob accepted")
	}
	if _, err := ParseKnobs(DefaultKnobs(), "components=x"); err == nil {
		t.Error("malformed value accepted")
	}
	if _, err := ParseKnobs(DefaultKnobs(), "components"); err == nil {
		t.Error("missing '=' accepted")
	}
	// String() output parses back to the same knobs.
	rt, err := ParseKnobs(Knobs{}, DefaultKnobs().String())
	if err != nil {
		t.Fatal(err)
	}
	if rt != DefaultKnobs() {
		t.Errorf("String/Parse round trip: %+v", rt)
	}
}

func TestKnobsNormalizedRaisesFloors(t *testing.T) {
	k := Knobs{}.normalized()
	if k.Components < 1 || k.MaxStates < 2 || k.ServiceStates < 2 || k.ServiceEvents < 1 ||
		k.LinkEvents < 1 || k.ConverterEvents < 1 || k.TauDepth < 1 || k.AcceptWidth < 1 {
		t.Errorf("zero knobs not raised to floors: %+v", k)
	}
	// Generation under zero knobs must still be well-formed.
	if err := Generate(5, Knobs{}).Validate(); err != nil {
		t.Errorf("generation under zero knobs: %v", err)
	}
}

func TestFixtureTextIsParseableDSLWithHeader(t *testing.T) {
	sys := Generate(3, DefaultKnobs())
	text := FixtureText(sys, "note")
	if !strings.Contains(text, "# seed 3") || !strings.Contains(text, "# knobs ") {
		t.Errorf("missing header:\n%s", text[:120])
	}
}
