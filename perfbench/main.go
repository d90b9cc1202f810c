// Command perfbench is protoquot's benchmark: one command that runs a named
// workload through the public functions of the derivation engine, the quotd
// service and the converter runtime, checks every output, and prints the
// workload's metrics as one JSON line.
//
//	bash perfbench/run.sh --workload derive-deep --seed 1 --seconds 20 --trace 0
//
// Workloads (their inputs, keyspace, rates and fault schedule are in
// workloads.json; why each was chosen, and which layers it loads and
// bypasses, is in BENCHMARK.json at the root of the checkout):
//
//   - derive-deep: chain(9) then chaindrop(8), a huge environment behind a
//     tiny converter.
//   - derive-wide: ring(7), a wide interface and a 114,817-state converter.
//   - serve: an in-process quotd driven open-loop at two offered rates.
//   - run: convrt sessions under a four-class fault schedule, conformance on,
//     on the paper's converter and on ring(6)'s maximal converter.
//
// With --trace 0 the last line carries the end-to-end metrics, measured with
// tracing off. Every workload prints all of them:
//
//   - setup_s: the median wall time of the workload's set-up.
//   - peak_rss_mb: the peak resident memory of the timed part of the run.
//   - op_ms: the median wall time of one operation. On derive-deep and
//     derive-wide an operation is one pass over the inputs, from
//     compose.LazyMany to the returned Result; on serve it is one request at
//     the nominal rate, timed from its due time to its response; on run it is
//     one round, a batch of sessions on each converter in turn.
//
// With --trace 1 the benchmark records spans around each call it makes into
// a layer, writes them to .bench_build/spans/, and prints the per-layer
// metrics instead. The printed ones are those every workload has: the
// derivation engine's figures (every workload derives) and the tracing
// overhead. The figures only one workload has, such as the serve request
// path or the converter runtime's step, tracker and audit costs, are
// written to standard error, one "perfbench: layer" line each.
//
// A wrong answer, a failed operation or an invalid run makes "correct" false
// and the exit status 1.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload reports back: its operation counts, the checks
// that failed, both metric sets (main prints the one --trace selects), and
// the workload's own figures, which main writes to standard error.
type outcome struct {
	attempted, failed   int
	problems            []string
	e2e, layers, detail map[string]metric
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}, detail: map[string]metric{}}
}

// fail records a failed operation and why it failed.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// problem records a failed check that is not tied to one operation, such as
// an invalid run; it makes the run incorrect without counting an operation.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// env is what every workload receives: the generated-input seed, the
// measuring time, and the tracer (off unless --trace 1).
type env struct {
	seed    int64
	seconds time.Duration
	tr      *tracer
	log     io.Writer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

var workloads = map[string]func(*env) (*outcome, error){
	"derive-deep": func(e *env) (*outcome, error) { return runDerive(e, cfg.DeriveDeep) },
	"derive-wide": func(e *env) (*outcome, error) { return runDerive(e, cfg.DeriveWide) },
	"serve":       runServe,
	"run":         runConverters,
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: derive-deep, derive-wide, serve or run")
		seed    = fs.Int64("seed", 1, "seed every generated input is drawn from")
		seconds = fs.Int("seconds", 20, "how long the run measures")
		trace   = fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s --seed n --seconds n --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		tr: newTracer(*trace == 1), log: stderr}
	out, err := run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}
	if e.tr.on {
		res.Metrics = out.layers
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := e.tr.write(path, *name, *seed); err != nil {
			out.problem("writing spans: %v", err)
		} else {
			e.logf("spans written to %s", path)
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.problem("metric %s has no finite value", name)
			res.Metrics[name] = metric{-1, m.Unit}
		}
	}
	details := make([]string, 0, len(out.detail))
	for name := range out.detail {
		details = append(details, name)
	}
	sort.Strings(details)
	for _, name := range details {
		e.logf("layer %s = %v %s", name, out.detail[name].Value, out.detail[name].Unit)
	}
	res.Correct = out.failed == 0 && len(out.problems) == 0 && out.attempted > 0
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// config is workloads.json: the parameters of every workload.
type config struct {
	// SetupRepeats is how many times each workload sets up at least;
	// setup_s is the median, and the last set-up is the one measured.
	SetupRepeats int          `json:"setup_repeats"`
	DeriveDeep   deriveConfig `json:"derive-deep"`
	DeriveWide   deriveConfig `json:"derive-wide"`
	Serve        serveConfig  `json:"serve"`
	Run          runConfig    `json:"run"`
}

//go:embed workloads.json
var configJSON []byte

var cfg = mustConfig(configJSON)

func mustConfig(data []byte) config {
	var c config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		panic("perfbench: workloads.json: " + err.Error())
	}
	return c
}

// setupRepeated runs build at least cfg.SetupRepeats times, and for at
// least a second, and returns the median wall time; build must leave the
// last set-up in place. The second keeps a set-up of microseconds from
// resting on a handful of samples.
func setupRepeated(build func() error) (time.Duration, error) {
	var times []float64
	start := time.Now()
	for i := 0; i < cfg.SetupRepeats || time.Since(start) < time.Second; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, float64(time.Since(t0)))
	}
	return time.Duration(median(times)), nil
}

// resetPeakRSS returns freed heap to the kernel and clears the process's
// resident-set high-water mark (VmHWM), so that the next peakRSSMB reports
// the peak of only what ran in between. getrusage's ru_maxrss cannot be
// reset, which is why it is not used.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting VmHWM: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runCtx bounds one operation of a run (a derivation, a session batch, the
// serve load) well inside the three minutes a whole run may take.
func runCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 150*time.Second)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank method, except
// that the median of an even count averages the middle pair; NaN for no
// samples. It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 0 && q == 0.5 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
