// Package protoquot derives protocol converters by solving specification
// "quotient" problems, implementing Calvert & Lam, "Deriving a Protocol
// Converter: A Top-Down Method" (ACM SIGCOMM 1989).
//
// A protocol converter mediates between implementations of different
// protocols so that together they provide a desired service. Given
// finite-state specifications of the surrounding components B (the
// mismatched protocol halves plus their channels) and of the service A,
// the quotient algorithm computes the maximal converter C over the
// converter-facing alphabet such that B‖C satisfies A — with respect to
// both safety (trace inclusion) and progress (deadlock freedom relative to
// the service's acceptance sets) — or proves that no converter exists.
//
// # Quick start
//
//	service := protoquot.NewSpec("S").
//		Init("v0").Ext("v0", "acc", "v1").Ext("v1", "del", "v0").
//		MustBuild()
//	world := protoquot.NewSpec("B").
//		Init("b0").Ext("b0", "acc", "b1").
//		Ext("b1", "fwd", "b2"). // converter-facing event
//		Ext("b2", "del", "b0").
//		MustBuild()
//	res, err := protoquot.Derive(service, world, protoquot.Options{})
//	if err != nil { … }
//	fmt.Println(res.Converter.Format())
//
// The subordinate functionality lives in this package's re-exports:
// composition (Compose), satisfaction checking (Satisfies, Safety,
// Progress), converter pruning (Prune), robust derivation against several
// environment variants (DeriveRobust), the text/JSON codecs
// (ParseSpec/WriteSpec/…), and the library of machines from the paper's
// figures (package internal/protocols, surfaced through the example
// programs and command-line tools).
package protoquot

import (
	"context"
	"io"

	"protoquot/internal/codegen"
	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/render"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
	"protoquot/internal/svc"
)

// Core model types, re-exported from the specification package.
type (
	// Spec is an immutable finite-state specification (S, Σ, T, λ, s0).
	Spec = spec.Spec
	// Builder incrementally assembles a Spec.
	Builder = spec.Builder
	// Event names an external event.
	Event = spec.Event
	// State indexes a state of a particular Spec.
	State = spec.State
	// ExtEdge is one external transition.
	ExtEdge = spec.ExtEdge
)

// Derivation types, re-exported from the quotient package.
type (
	// Options tunes Derive; the zero value is the paper's algorithm.
	Options = core.Options
	// Result carries the derived converter and derivation statistics.
	Result = core.Result
	// Stats describes derivation effort.
	Stats = core.Stats
	// NoQuotientError reports that no converter exists.
	NoQuotientError = core.NoQuotientError
	// TraceEvent is one structured derivation event delivered to
	// Options.Trace.
	TraceEvent = core.TraceEvent
	// Metrics is the engine observability layer inside Stats: per-phase
	// wall times, interning hit rate, frontier shape, worker count.
	Metrics = core.Metrics
)

// Violation describes a safety or progress violation found by the
// satisfaction checker, with a witness trace.
type Violation = sat.Violation

// Diagnostic is the interface shared by every structured failure this
// library reports about a specification system: a *NoQuotientError (no
// converter exists) and a *Violation (a system fails satisfaction) both
// implement it. Phase names the property that failed — "safety" or
// "progress" — and Witness returns a counterexample trace when one exists
// (it may be nil: nonexistence by progress is a global property without a
// single witness). Callers that previously type-switched on the concrete
// error types can handle both uniformly:
//
//	var diag protoquot.Diagnostic
//	if errors.As(err, &diag) {
//		log.Printf("%s failure, witness: %v", diag.Phase(), diag.Witness())
//	}
type Diagnostic interface {
	error
	// Phase names the failed property: "safety" or "progress".
	Phase() string
	// Witness returns a counterexample trace, or nil if none applies.
	Witness() []Event
}

// Both diagnostic error types satisfy the shared interface.
var (
	_ Diagnostic = (*NoQuotientError)(nil)
	_ Diagnostic = (*Violation)(nil)
)

// NewSpec returns a Builder for a specification with the given name.
func NewSpec(name string) *Builder { return spec.NewBuilder(name) }

// ParseSpec reads a single specification in the text format.
func ParseSpec(text string) (*Spec, error) { return dsl.ParseString(text) }

// ParseSpecs reads every specification from the stream.
func ParseSpecs(r io.Reader) ([]*Spec, error) { return dsl.Parse(r) }

// WriteSpec serializes a specification in the text format.
func WriteSpec(w io.Writer, s *Spec) error { return dsl.Write(w, s) }

// SpecText returns the text-format serialization of s.
func SpecText(s *Spec) string { return dsl.String(s) }

// SpecJSON returns the JSON serialization of s.
func SpecJSON(s *Spec) ([]byte, error) { return dsl.MarshalJSON(s) }

// SpecFromJSON decodes a specification from JSON.
func SpecFromJSON(data []byte) (*Spec, error) { return dsl.UnmarshalJSON(data) }

// DOT renders a specification as a Graphviz digraph.
func DOT(s *Spec) string { return render.DOTString(s, render.DOTOptions{}) }

// Compose returns the reachable composition of the given specifications
// (left-associated ‖). Events shared by exactly two components synchronize
// and are hidden; an event in three or more components is an error.
func Compose(specs ...*Spec) (*Spec, error) { return compose.Many(specs...) }

// Lazy is a demand-driven composed system: composite states are expanded
// only when a consumer first asks for their successors. It satisfies
// Environment; fed to DeriveEnv, the derivation's own safety phase drives
// exploration, so only the slice of the product the derivation touches is
// ever built.
type Lazy = compose.Lazy

// ComposeLazy builds the demand-driven n-way composition over integer state
// ids, skipping the left fold's intermediate products and all string-keyed
// state bookkeeping. It accepts exactly the systems Compose accepts and
// represents the same machine; only the initial state is interned up front. The converter DeriveEnv produces
// over it is bit-identical to the eager engines' for every worker count.
// Use (*Lazy).Spec to saturate and materialize a *Spec.
func ComposeLazy(specs ...*Spec) (*Lazy, error) { return compose.LazyMany(specs...) }

// Satisfies reports whether B satisfies A with respect to both safety and
// progress. A must be in normal form for the progress part. The returned
// error is a *Violation carrying a witness trace when the answer is no.
func Satisfies(b, a *Spec) error { return sat.Satisfies(b, a) }

// Safety checks satisfaction with respect to safety only.
func Safety(b, a *Spec) error { return sat.Safety(b, a) }

// Progress checks satisfaction with respect to progress (implies a safety
// check first).
func Progress(b, a *Spec) error { return sat.Progress(b, a) }

// Derive computes the quotient of service a by environment b: the maximal
// converter C over Σ_B − Σ_A such that B‖C satisfies A, or a
// *NoQuotientError proving none exists. a must be in normal form (see
// (*Spec).IsNormalForm and (*Spec).Normalize).
func Derive(a, b *Spec, opts Options) (*Result, error) { return core.Derive(a, b, opts) }

// DeriveContext is Derive with cancellation: ctx is checked once per
// safety-phase frontier level and once per progress-phase sweep, and a
// canceled derivation returns an error wrapping ctx.Err().
func DeriveContext(ctx context.Context, a, b *Spec, opts Options) (*Result, error) {
	return core.DeriveContext(ctx, a, b, opts)
}

// DeriveRobust derives one converter that is simultaneously correct for
// every environment variant in bs (all sharing one alphabet). See the
// package documentation of internal/core for when this matters.
func DeriveRobust(a *Spec, bs []*Spec, opts Options) (*Result, error) {
	return core.DeriveRobust(a, bs, opts)
}

// DeriveRobustContext is DeriveRobust with cancellation; see DeriveContext.
func DeriveRobustContext(ctx context.Context, a *Spec, bs []*Spec, opts Options) (*Result, error) {
	return core.DeriveRobustContext(ctx, a, bs, opts)
}

// Environment is the read-side surface the deriver needs from B; both *Spec
// and *Lazy satisfy it. See core.Environment for the edge-order contract.
type Environment = core.Environment

// DeriveEnv is Derive over any Environment — most usefully a *Lazy from
// ComposeLazy, whose safety phase expands only the slice of the product it
// touches, with no *Spec materialization in between. The derived converter is
// bit-identical to Derive over the equivalent eager composition.
func DeriveEnv(a *Spec, b Environment, opts Options) (*Result, error) {
	return core.DeriveEnv(a, b, opts)
}

// DeriveEnvContext is DeriveEnv with cancellation; see DeriveContext.
func DeriveEnvContext(ctx context.Context, a *Spec, b Environment, opts Options) (*Result, error) {
	return core.DeriveEnvContext(ctx, a, b, opts)
}

// Verify independently checks that B‖C satisfies A.
func Verify(a, b, c *Spec) error { return core.Verify(a, b, c) }

// Prune greedily removes "useless" converter behavior (the paper's
// Figure 14 dotted boxes) while re-verifying correctness after each step.
func Prune(a, b, c *Spec) (*Spec, error) { return core.Prune(a, b, c) }

// PruneRobust is Prune against several environment variants at once.
func PruneRobust(a *Spec, bs []*Spec, c *Spec) (*Spec, error) {
	return core.PruneRobust(a, bs, c)
}

// GenerateGo emits standalone, dependency-free Go source implementing the
// converter c (typically a pruned quotient result): a state-machine type
// with Enabled/Step/State/Reset methods. pkg and typ name the generated
// package and type ("" picks defaults).
func GenerateGo(c *Spec, pkg, typ string) ([]byte, error) {
	return codegen.Generate(c, codegen.Config{Package: pkg, Type: typ})
}

// Service-construction combinators (package internal/svc): build quotient
// inputs correct by construction instead of wiring state machines by hand.

// ServiceLiteral returns the linear service performing the events once, in
// order, then stopping.
func ServiceLiteral(name string, events ...Event) (*Spec, error) {
	return svc.Literal(name, events...)
}

// ServiceSeq performs a to completion, then b.
func ServiceSeq(name string, a, b *Spec) (*Spec, error) { return svc.Seq(name, a, b) }

// ServiceLoop repeats a forever (e.g. ServiceLoop of acc·del is the
// paper's Figure 11 service).
func ServiceLoop(name string, a *Spec) (*Spec, error) { return svc.Loop(name, a) }

// ServiceChoice offers a or b, decided by the first event.
func ServiceChoice(name string, a, b *Spec) (*Spec, error) { return svc.Choice(name, a, b) }

// ServiceOption permits a or stopping (a service-side internal choice).
func ServiceOption(name string, a *Spec) (*Spec, error) { return svc.Option(name, a) }

// ServiceRepeat performs a exactly n times.
func ServiceRepeat(name string, a *Spec, n int) (*Spec, error) { return svc.Repeat(name, a, n) }
