package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	rt "protoquot/internal/runtime"
	"protoquot/internal/specgen"
)

func testEnv(t *testing.T, trace bool) *env {
	t.Helper()
	return &env{seed: 7, seconds: 200 * time.Millisecond, tr: newTracer(trace), log: io.Discard}
}

// smallServe is the serve workload's shape on a keyspace and at rates a test
// can afford.
func smallServe() serveConfig {
	sc := cfg.Serve
	sc.Mix.Keys = []string{"chain(3) table", "rand table", "ring(2) prune", "randwedge prune", "chaindrop(3) table"}
	sc.NominalRPS, sc.HighRPS = 50, 100
	sc.Mix.FreshShare = 0.2
	return sc
}

// smallRun is the run workload's shape on fewer, shorter sessions.
func smallRun() runConfig {
	rc := cfg.Run
	rc.Sessions, rc.Steps, rc.ReplaySteps, rc.ReplayBatch = 16, 200, 2048, 256
	return rc
}

// paperConverters derives the paper's converter, adding the derivation's
// per-layer figures to sums when sums is non-nil.
func paperConverters(t *testing.T, sums layerSums) []converter {
	t.Helper()
	s, err := paperConverter(testEnv(t, false), sums, newOutcome())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := convrt.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return []converter{{"paper", tb, s}}
}

func TestSameSeedSameInputs(t *testing.T) {
	sc := smallServe()
	names := func(seed int64) ([]string, []time.Duration) {
		arr, nFresh := schedule(seed, sc, time.Second)
		fixed, fresh, err := keyspace(seed, sc, nFresh)
		if err != nil {
			t.Fatal(err)
		}
		var ns []string
		var dues []time.Duration
		for _, tm := range append(fixed, fresh...) {
			ns = append(ns, tm.name)
		}
		for _, a := range arr {
			dues = append(dues, a.due)
			ns = append(ns, fmt.Sprint("rank ", a.rank))
		}
		return ns, dues
	}
	k1, d1 := names(1)
	k1again, d1again := names(1)
	k2, d2 := names(2)
	if !reflect.DeepEqual(k1, k1again) || !reflect.DeepEqual(d1, d1again) {
		t.Fatal("the same seed gave a different keyspace or schedule")
	}
	if reflect.DeepEqual(k1, k2) || reflect.DeepEqual(d1, d2) {
		t.Fatal("different seeds gave the same keyspace or schedule")
	}

	tb := paperConverters(t, nil)[0].table
	if !reflect.DeepEqual(walk(tb, 1, 500), walk(tb, 1, 500)) {
		t.Fatal("the same seed gave a different replay walk")
	}
	if reflect.DeepEqual(walk(tb, 1, 500), walk(tb, 2, 500)) {
		t.Fatal("different seeds gave the same replay walk")
	}
	// Session walks and fault schedules are the runtime's, drawn from the
	// seed the benchmark passes; the counters they leave must repeat.
	counters := func(seed int64) [4]int64 {
		e := testEnv(t, false)
		e.seed = seed
		c := paperConverters(t, nil)[0]
		rep, _, err := runOnce(e, convrt.Config{Table: c.table, Reference: c.ref,
			Sessions: 8, StepsPerSession: 300, Seed: seed * 1000, Faults: mustFaults(t)}, false, "")
		if err != nil {
			t.Fatal(err)
		}
		return [4]int64{rep.Proposed, rep.Stale, rep.Dropped, rep.Duplicated}
	}
	if counters(1) != counters(1) {
		t.Fatal("the same seed gave different session walks")
	}
	if counters(1) == counters(2) {
		t.Fatal("different seeds gave the same session walks")
	}
}

func mustFaults(t *testing.T) rt.FaultModel {
	t.Helper()
	f, err := rt.ParseFaults(cfg.Run.Faults)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// benchmarkJSON is the part of ../BENCHMARK.json the names are checked
// against.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string }
	PerLayer  []struct{ Name, Unit string }
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	raw := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for k, dst := range map[string]any{"workloads": &b.Workloads, "end_to_end": &b.EndToEnd, "per_layer": &b.PerLayer} {
		if err := json.Unmarshal(raw[k], dst); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	return b
}

// TestMetricNamesMatchBenchmarkJSON runs every workload small, traced and
// untraced, and checks that what it prints is exactly what BENCHMARK.json
// declares, units included.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if !reflect.DeepEqual(declared, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", declared, workloadNames())
	}

	small := map[string]func(*env) (*outcome, error){
		"derive": func(e *env) (*outcome, error) {
			return deriveWith(e, deriveConfig{Inputs: []string{"chain(3)"}}, chain3Pin(t))
		},
		"serve": func(e *env) (*outcome, error) { return serveWith(e, smallServe()) },
		"run": func(e *env) (*outcome, error) {
			var sums layerSums
			if e.tr.on {
				sums = layerSums{}
			}
			return runWith(e, smallRun(), paperConverters(t, sums), time.Millisecond, sums, newOutcome())
		},
	}
	for _, set := range []struct {
		trace bool
		decl  []struct{ Name, Unit string }
		pick  func(*outcome) map[string]metric
	}{
		{false, b.EndToEnd, func(o *outcome) map[string]metric { return o.e2e }},
		{true, b.PerLayer, func(o *outcome) map[string]metric { return o.layers }},
	} {
		units := map[string]string{}
		for _, m := range set.decl {
			units[m.Name] = m.Unit
		}
		// Every workload prints every declared metric of the set, and no other.
		for name, run := range small {
			out, err := run(testEnv(t, set.trace))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if out.failed != 0 || len(out.problems) != 0 {
				t.Fatalf("%s failed its checks: %v", name, out.problems)
			}
			printed := set.pick(out)
			for m, v := range printed {
				if u, ok := units[m]; !ok || u != v.Unit {
					t.Errorf("%s prints %s in %q; BENCHMARK.json declares %q", name, m, v.Unit, u)
				}
			}
			for m := range units {
				if _, ok := printed[m]; !ok {
					t.Errorf("BENCHMARK.json declares %s (trace %t), which %s does not print", m, set.trace, name)
				}
			}
		}
	}
}

// chain3Pin records chain(3)'s pin the way pins.json was recorded.
func chain3Pin(t *testing.T) map[string]pin {
	t.Helper()
	f := specgen.Chain(3)
	x, err := compose.LazyMany(f.Components...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DeriveEnvContext(context.Background(), f.Service, x, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]pin{f.Name: pinOf(res)}
}

func TestCorruptedPinFailsTheRun(t *testing.T) {
	good := chain3Pin(t)
	out, err := deriveWith(testEnv(t, false), deriveConfig{Inputs: []string{"chain(3)"}}, good)
	if err != nil || out.failed != 0 {
		t.Fatalf("the recorded pin failed: %v %v", err, out.problems)
	}
	bad := good["chain(3)"]
	bad.Hash = strings.Repeat("0", 64)
	out, err = deriveWith(testEnv(t, false), deriveConfig{Inputs: []string{"chain(3)"}}, map[string]pin{"chain(3)": bad})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 || out.failed != out.attempted {
		t.Fatalf("a corrupted pin passed: %d of %d failed", out.failed, out.attempted)
	}
}

// TestMiscompiledTableFailsTheRun flips one cell of the paper converter's
// compiled table, through its wire encoding, so that one transition leads
// to the wrong state; conformance must fail sessions.
func TestMiscompiledTableFailsTheRun(t *testing.T) {
	c := paperConverters(t, nil)[0]
	lines := strings.Split(string(convrt.Encode(c.table)), "\n")
	flipped := false
	for i, l := range lines {
		if !strings.HasPrefix(l, "row ") || flipped {
			continue
		}
		cells := strings.Fields(l)[1:]
		for j, cell := range cells {
			if cell != "." {
				to := "0"
				if cell == "0" {
					to = "1"
				}
				cells[j] = to
				lines[i] = "row " + strings.Join(cells, " ")
				flipped = true
				break
			}
		}
	}
	bad, err := convrt.Decode([]byte(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	out, err := runWith(testEnv(t, false), smallRun(), []converter{{"paper", bad, c.ref}}, time.Millisecond, nil, newOutcome())
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Fatal("a miscompiled table ran clean")
	}
	good, err := runWith(testEnv(t, false), smallRun(), []converter{c}, time.Millisecond, nil, newOutcome())
	if err != nil || good.failed != 0 {
		t.Fatalf("the correct table failed: %v %v", err, good.problems)
	}
}
