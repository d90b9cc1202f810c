// Benchmark harness for the reproduction: one benchmark per paper artifact
// (figures 7–18 and the §7 complexity claims), plus baseline comparisons
// and the deployment runtime. EXPERIMENTS.md records the measured shapes
// against the paper's qualitative claims. Run with:
//
//	go test -bench=. -benchmem .
package protoquot

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"protoquot/internal/baseline"
	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/engine"
	"protoquot/internal/protocols"
	"protoquot/internal/runtime"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// --- E2/E3: protocol systems provide their services (figures 7, 8) ---

func BenchmarkFigure7ABSystemVerify(b *testing.B) {
	svc := protocols.Service()
	for i := 0; i < b.N; i++ {
		sys := protocols.ABSystem()
		if err := sat.Satisfies(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8NSSystemVerify(b *testing.B) {
	svc := protocols.AtLeastOnceService()
	for i := 0; i < b.N; i++ {
		sys := protocols.NSSystem()
		if err := sat.Satisfies(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Figure 12, safety phase of the symmetric configuration ---

func BenchmarkFigure12SafetyPhase(b *testing.B) {
	svc, bsym := protocols.Service(), protocols.SymmetricB()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, bsym, core.Options{SafetyOnly: true, OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.SafetyStates
	}
	b.ReportMetric(float64(states), "states")
}

// --- E7: Figure 9/12 full derivation — the paper's negative result ---

func BenchmarkFigure12FullQuotient(b *testing.B) {
	svc, bsym := protocols.Service(), protocols.SymmetricB()
	for i := 0; i < b.N; i++ {
		_, err := core.Derive(svc, bsym, core.Options{OmitVacuous: true})
		var nq *core.NoQuotientError
		if !errors.As(err, &nq) {
			b.Fatalf("expected no quotient, got %v", err)
		}
	}
}

// --- E8: weakened service admits a converter in the same configuration ---

func BenchmarkWeakenedServiceQuotient(b *testing.B) {
	svc, bsym := protocols.AtLeastOnceService(), protocols.SymmetricB()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, bsym, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.FinalStates
	}
	b.ReportMetric(float64(states), "states")
}

// --- E9: Figures 13/14, the co-located configuration ---

func BenchmarkFigure14Quotient(b *testing.B) {
	svc, bco := protocols.Service(), protocols.ColocatedB()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, bco, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.FinalStates
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkFigure14Prune(b *testing.B) {
	svc, bco := protocols.Service(), protocols.ColocatedB()
	res, err := core.Derive(svc, bco, core.Options{OmitVacuous: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		pruned, err := core.Prune(svc, bco, res.Converter)
		if err != nil {
			b.Fatal(err)
		}
		states = pruned.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// --- E10: Section 6 transport configurations (figures 16–18) ---

func BenchmarkFigure16PassThroughCheck(b *testing.B) {
	weak := protocols.CSTConcat()
	for i := 0; i < b.N; i++ {
		sys, err := compose.Many(protocols.TransportA(), protocols.NetA(false),
			protocols.PassThrough(), protocols.NetB(), protocols.TransportB())
		if err != nil {
			b.Fatal(err)
		}
		if err := sat.Satisfies(sys, weak); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure17TransportQuotient(b *testing.B) {
	svc, env := protocols.CST(), protocols.TransportB17()
	for i := 0; i < b.N; i++ {
		if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure18TransportQuotient(b *testing.B) {
	svc, env := protocols.CST(), protocols.TransportB18()
	for i := 0; i < b.N; i++ {
		if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: §7 complexity claims — safety phase exponential in the number
// of components, progress phase polynomial in the safety-phase output.
// The lane family composes n independent request/response lanes: |S_B| =
// 4^n. Compare SafetyPhase and FullQuotient growth; their difference is
// the progress phase.

func benchLanes(b *testing.B, n int, safetyOnly bool) {
	svc, env := protocols.LaneService(n), protocols.LaneSystem(n)
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, env, core.Options{OmitVacuous: true, SafetyOnly: safetyOnly})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.SafetyStates
	}
	b.ReportMetric(float64(states), "safety-states")
}

func BenchmarkScalingSafetyPhase(b *testing.B) {
	for n := 1; n <= 5; n++ {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) { benchLanes(b, n, true) })
	}
}

func BenchmarkScalingFullQuotient(b *testing.B) {
	for n := 1; n <= 5; n++ {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) { benchLanes(b, n, false) })
	}
}

// --- E12: baseline comparison — Okumura's bottom-up seed method is fast
// but needs an a posteriori global check; the quotient method answers
// definitively.

func BenchmarkOkumuraBaseline(b *testing.B) {
	p1 := baseline.HideEvents(protocols.ABReceiver(), protocols.Del)
	q0 := baseline.HideEvents(protocols.NSSender(), protocols.Acc)
	seed := baseline.Seed{Rules: []baseline.SeedRule{
		{Name: "data", Producers: []spec.Event{"+d0", "+d1"}, Consumer: "-D"},
		{Name: "ack0", Producers: []spec.Event{"+A"}, Consumer: "-a0"},
		{Name: "ack1", Producers: []spec.Event{"+A"}, Consumer: "-a1"},
	}}
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Okumura(p1, q0, seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOkumuraGlobalCheck(b *testing.B) {
	p1 := baseline.HideEvents(protocols.ABReceiver(), protocols.Del)
	q0 := baseline.HideEvents(protocols.NSSender(), protocols.Acc)
	seed := baseline.Seed{Rules: []baseline.SeedRule{
		{Name: "data", Producers: []spec.Event{"+d0", "+d1"}, Consumer: "-D"},
		{Name: "ack0", Producers: []spec.Event{"+A"}, Consumer: "-a0"},
		{Name: "ack1", Producers: []spec.Event{"+A"}, Consumer: "-a1"},
	}}
	cand, err := baseline.Okumura(p1, q0, seed)
	if err != nil {
		b.Fatal(err)
	}
	bsym, svc := protocols.SymmetricB(), protocols.Service()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := compose.Pair(bsym, cand)
		if err := sat.Satisfies(sys, svc); err == nil {
			b.Fatal("global check unexpectedly passed")
		}
	}
}

func BenchmarkProjectionRelay(b *testing.B) {
	image := protocols.AtLeastOnceService()
	for i := 0; i < b.N; i++ {
		if err := baseline.CommonImage(protocols.NSSystem(), protocols.NSSystem(), image); err != nil {
			b.Fatal(err)
		}
		if _, err := baseline.Relay("R", []baseline.Mapping{
			{In: "+D", Out: "-D'"}, {In: "+A'", Out: "-A"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate benchmarks: composition, satisfaction, normalization ---

func BenchmarkComposeABSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = protocols.ABSystem()
	}
}

func BenchmarkSatSafetyABSystem(b *testing.B) {
	sys, svc := protocols.ABSystem(), protocols.Service()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sat.Safety(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSatProgressABSystem(b *testing.B) {
	sys, svc := protocols.ABSystem(), protocols.Service()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sat.Progress(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalizeSymmetricB(b *testing.B) {
	env := protocols.SymmetricB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Normalize()
	}
}

func BenchmarkMinimizeSymmetricB(b *testing.B) {
	env := protocols.SymmetricB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Minimize()
	}
}

// --- Deployment: eventually-reliable derivation and runtime throughput ---

func BenchmarkEventuallyReliableQuotient(b *testing.B) {
	svc, env := protocols.Service(), protocols.EventuallyReliableNSB()
	for i := 0; i < b.N; i++ {
		if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimeThroughput(b *testing.B) {
	env := protocols.EventuallyReliableNSB()
	res, err := core.Derive(protocols.Service(), env, core.Options{OmitVacuous: true})
	if err != nil {
		b.Fatal(err)
	}
	conv, err := core.Prune(protocols.Service(), env, res.Converter)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rng := rand.New(rand.NewSource(1))
	ab := runtime.NewDuplex(0, rng)
	ns := runtime.NewDuplex(0, rng)
	delivered := make(chan []byte, 1024)
	go runtime.NSReceiver(ctx, ns, delivered)
	go func() {
		_ = runtime.Converter(ctx, conv, ab, ns, runtime.ABToNSPortMap(false))
	}()
	// One op sends a full d0/d1 sequence-bit cycle: each ABSender call
	// restarts at bit 0, and after an odd number of messages the converter
	// would treat the next d0 as a duplicate (re-acked, not delivered).
	payloads := [][]byte{[]byte("bench-payload-0"), []byte("bench-payload-1")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if runtime.ABSender(ctx, payloads, ab) != 2 {
			b.Fatal("send failed")
		}
		<-delivered
		<-delivered
	}
}

func BenchmarkEngineWalkABSystem(b *testing.B) {
	sys := protocols.ABSystem()
	rng := rand.New(rand.NewSource(2))
	r := engine.New(sys, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Walk(1000)
	}
}

// --- Extension families: cross-generation and window conversions ---

// Converting between sequenced protocols of different moduli — the
// "several generations must coexist" mismatch of the paper's introduction.
func BenchmarkCrossSeqQuotient(b *testing.B) {
	for _, c := range []struct{ j, k int }{{2, 3}, {3, 2}, {3, 4}} {
		b.Run(fmt.Sprintf("%d-to-%d", c.j, c.k), func(b *testing.B) {
			env, err := protocols.CrossSeqB(c.j, c.k)
			if err != nil {
				b.Fatal(err)
			}
			svc := protocols.Service()
			b.ResetTimer()
			var states int
			for i := 0; i < b.N; i++ {
				res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
				if err != nil {
					b.Fatal(err)
				}
				states = res.Stats.FinalStates
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// Converting a go-back-N window sender to a one-at-a-time receiver: the
// converter must buffer and pace acknowledgements.
func BenchmarkWindowToNSQuotient(b *testing.B) {
	env, err := protocols.WindowToNSB(protocols.WindowConfig{Window: 2, Modulus: 3})
	if err != nil {
		b.Fatal(err)
	}
	svc := protocols.WindowService(2)
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.FinalStates
	}
	b.ReportMetric(float64(states), "states")
}

// --- Derivation engine: parallel interned safety phase ---
//
// The BenchmarkDerive* family reports the engine metrics that
// Result.Stats.Metrics carries: the safety-phase wall time and the pair-set
// interning hit rate.

// BenchmarkDeriveWindow derives the window-3 go-back-N to one-at-a-time
// conversion — the widest-frontier workload in the protocol library (peak
// frontier ≈ 60 states) — reporting the safety-phase wall time and the
// interning hit rate.
func BenchmarkDeriveWindow(b *testing.B) {
	env, err := protocols.WindowToNSB(protocols.WindowConfig{Window: 3, Modulus: 4})
	if err != nil {
		b.Fatal(err)
	}
	svc := protocols.WindowService(3)
	var safety time.Duration
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		m = res.Stats.Metrics
		safety += m.SafetyWall
	}
	b.ReportMetric(float64(safety.Microseconds())/float64(b.N), "safety-µs")
	b.ReportMetric(100*m.InternHitRate(), "intern-hit-%")
	b.ReportMetric(float64(m.PeakFrontier), "peak-frontier")
}

// BenchmarkDeriveFigure18 runs the paper's largest derivation (Figure 18
// transport conversion).
func BenchmarkDeriveFigure18(b *testing.B) {
	svc, env := protocols.CST(), protocols.TransportB18()
	var safety time.Duration
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		safety += res.Stats.Metrics.SafetyWall
	}
	b.ReportMetric(float64(safety.Microseconds())/float64(b.N), "safety-µs")
}

// BenchmarkDeriveCancellation measures the overhead the context plumbing
// adds to an uncancelled derivation (checked once per frontier level).
func BenchmarkDeriveCancellation(b *testing.B) {
	env, err := protocols.WindowToNSB(protocols.WindowConfig{Window: 2, Modulus: 3})
	if err != nil {
		b.Fatal(err)
	}
	svc := protocols.WindowService(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < b.N; i++ {
		if _, err := core.DeriveContext(ctx, svc, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Satisfaction over the 31k-state lossy window system: the substrate's
// largest verification instance.
func BenchmarkSatSafetyLossyWindow(b *testing.B) {
	sys, err := protocols.WindowSystem(protocols.WindowConfig{Window: 2, Modulus: 3}, true)
	if err != nil {
		b.Fatal(err)
	}
	svc := protocols.WindowService(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sat.Safety(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: design choices DESIGN.md calls out ---

// Keeping vs dropping vacuous states: maximality costs at most one extra
// state plus its transitions; OmitVacuous trades the maximality property
// for a tighter object.
func BenchmarkAblationVacuous(b *testing.B) {
	svc, env := protocols.Service(), protocols.ColocatedB()
	for _, omit := range []bool{false, true} {
		name := "keep"
		if omit {
			name = "omit"
		}
		b.Run(name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				res, err := core.Derive(svc, env, core.Options{OmitVacuous: omit})
				if err != nil {
					b.Fatal(err)
				}
				states = res.Stats.FinalStates
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// Minimizing B (strong bisimulation) before deriving: reduces the tracked
// pair space when the composition has redundant states.
func BenchmarkAblationMinimizeFirst(b *testing.B) {
	svc := protocols.Service()
	b.Run("raw", func(b *testing.B) {
		env := protocols.ColocatedB()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("minimized", func(b *testing.B) {
		env := protocols.ColocatedB().Minimize()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// τ-compressing the environment before deriving: semantics-preserving
// (tested in internal/core) and measurably cheaper on rendezvous-heavy
// compositions.
func BenchmarkAblationCompressTau(b *testing.B) {
	svc := protocols.Service()
	b.Run("raw", func(b *testing.B) {
		env := protocols.SymmetricB()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = core.Derive(svc, env, core.Options{OmitVacuous: true, SafetyOnly: true})
		}
	})
	b.Run("compressed", func(b *testing.B) {
		env := protocols.SymmetricB().CompressTau()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = core.Derive(svc, env, core.Options{OmitVacuous: true, SafetyOnly: true})
		}
	})
}

// Robust derivation against k environment variants scales the tracked pair
// sets roughly linearly in k.
func BenchmarkAblationRobustVariants(b *testing.B) {
	svc := protocols.Service()
	for _, k := range []int{0, 1, 2} {
		envs := protocols.DeploymentEnvs(k)
		b.Run(fmt.Sprintf("variants=%d", len(envs)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DeriveRobust(svc, envs, core.Options{OmitVacuous: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The eventually-reliable model vs the plain fair-loss model: the state
// space doubles but the derived converter collapses to the canonical relay.
func BenchmarkAblationChannelModel(b *testing.B) {
	svc := protocols.Service()
	b.Run("fair-loss", func(b *testing.B) {
		env := protocols.ReliableNSB()
		var states int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
			if err != nil {
				b.Fatal(err)
			}
			states = res.Stats.FinalStates
		}
		b.ReportMetric(float64(states), "states")
	})
	b.Run("eventually-reliable", func(b *testing.B) {
		env := protocols.EventuallyReliableNSB()
		var states int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
			if err != nil {
				b.Fatal(err)
			}
			states = res.Stats.FinalStates
		}
		b.ReportMetric(float64(states), "states")
	})
}

// --- PR: fused index-space composition and the memoized progress phase ---
//
// Each specgen family runs through the two pipelines: eager string-keyed
// composition feeding Derive ("spec engine") and the demand-driven
// composition whose exploration the safety phase drives ("lazy engine"). The
// quotbench command records the same comparison as committed JSON
// (BENCH_pr3.json, BENCH_pr4.json); these benchmarks keep it visible to
// `go test -bench`.

func benchFamilySpecEngine(b *testing.B, f specgen.Family) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := compose.Many(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Derive(f.Service, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFamilyLazyEngine(b *testing.B, f specgen.Family) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := compose.LazyMany(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.DeriveEnv(f.Service, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeriveChainSpecEngine(b *testing.B)     { benchFamilySpecEngine(b, specgen.Chain(5)) }
func BenchmarkDeriveChainLazyEngine(b *testing.B)     { benchFamilyLazyEngine(b, specgen.Chain(5)) }
func BenchmarkDeriveChainDropSpecEngine(b *testing.B) { benchFamilySpecEngine(b, specgen.ChainDrop(4)) }
func BenchmarkDeriveChainDropLazyEngine(b *testing.B) { benchFamilyLazyEngine(b, specgen.ChainDrop(4)) }

// Frontier instances (this PR's BenchFamilies tail): demand-driven engine
// only — the eager pipelines materialize the full product and belong under
// quotbench's -derivetimeout, not in a -benchtime 1x smoke.
func BenchmarkDeriveChainFrontierLazyEngine(b *testing.B) {
	benchFamilyLazyEngine(b, specgen.Chain(8))
}
func BenchmarkDeriveChainDropFrontierLazyEngine(b *testing.B) {
	benchFamilyLazyEngine(b, specgen.ChainDrop(7))
}
func BenchmarkDeriveRingFrontierLazyEngine(b *testing.B) {
	benchFamilyLazyEngine(b, specgen.Ring(6))
}

// BenchmarkDeriveRing6Emit is the emission smoke: a full ring(6)
// derivation, whose 24,641-state maximal converter makes laying out the
// result a visible share of the work. It reports allocs/op for the whole
// derivation and the emit layer's own wall time, so a regression in
// emission (a return to per-edge string maps, a second trim) shows up in
// the benchsmoke output.
func BenchmarkDeriveRing6Emit(b *testing.B) {
	f := specgen.Ring(6)
	b.ReportAllocs()
	var emit time.Duration
	for i := 0; i < b.N; i++ {
		env, err := compose.LazyMany(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.DeriveEnv(f.Service, env, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		emit += res.Stats.Metrics.EmitWall
	}
	b.ReportMetric(float64(emit.Microseconds())/1e3/float64(b.N), "emit-ms/op")
}

// BenchmarkDeriveAllocBudgetChain7 is the allocation-regression smoke: a
// chain(7) demand-driven derivation must stay under a pinned heap budget.
// The ceiling is ~1.5× the measured cost (chain(7) allocates ~61 MB
// end-to-end), so ordinary drift passes and a lost arena-reuse or
// growth-policy regression — the class of bug that once cost +190 MB on
// chain(9) — fails the benchsmoke gate instead of landing silently. The
// process-wide Sys check is a gross leak backstop; it is process-global
// (earlier benchmarks in the same run contribute), hence the slack.
func BenchmarkDeriveAllocBudgetChain7(b *testing.B) {
	const (
		allocCeiling = 96 << 20
		sysCeiling   = 2 << 30
	)
	f := specgen.Chain(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := compose.LazyMany(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		if _, err := core.DeriveEnv(f.Service, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
		goruntime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > allocCeiling {
			b.Fatalf("chain(7) derivation allocated %d MB, budget is %d MB",
				got>>20, allocCeiling>>20)
		}
		if after.Sys > sysCeiling {
			b.Fatalf("process Sys grew to %d MB, ceiling is %d MB", after.Sys>>20, sysCeiling>>20)
		}
	}
}

// Composition alone, eager fold vs the demand-driven product saturated
// state by state. Ring components share events pairwise around a cycle, the
// worst case for the left fold's intermediate products.
func BenchmarkComposeRingEager(b *testing.B) {
	f := specgen.Ring(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compose.Many(f.Components...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComposeRingLazy(b *testing.B) { benchSaturateLazy(b, specgen.Ring(3)) }

// The saturated lazy product at a size the eager fold cannot reach in
// reasonable time (ring(5) = 30720 composite states; the fold takes
// minutes).
func BenchmarkComposeRingLazyLarge(b *testing.B) { benchSaturateLazy(b, specgen.Ring(5)) }

// ring(6)'s product is about 2^33.5, past the paged intern array, so every
// successor lookup of this saturation goes through the hash tier.
func BenchmarkComposeRingLazyHashed(b *testing.B) { benchSaturateLazy(b, specgen.Ring(6)) }

// benchSaturateLazy composes f's components lazily and expands every
// reachable composite state.
func benchSaturateLazy(b *testing.B, f specgen.Family) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, err := compose.LazyMany(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		for st := 0; st < x.NumStates(); st++ { // NumStates grows as rows expand
			x.Rows(spec.State(st))
		}
	}
}
