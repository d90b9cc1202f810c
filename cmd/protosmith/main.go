// Command protosmith runs randomized differential-fuzzing campaigns over
// the derivation engines.
//
// Usage:
//
//	protosmith [-seed N] [-count N] [-knobs k=v,...] [-shrink]
//	           [-emit-fixture DIR] [-oracle-limit N] [-v]
//	protosmith -replay FILE.spec [-v]
//
// Each campaign generates -count well-formed random systems at consecutive
// seeds and runs every one through both engine pipelines, the sat checker,
// the raw-edge oracles, and the baseline candidate probes. Any divergence
// fails the run (exit 2); with -shrink it is first reduced to a minimal
// reproducer, and with -emit-fixture the reproducer is written as a
// ready-to-commit regression fixture.
//
// -replay re-checks a single fixture file (service first) instead of
// generating, so committed reproducers can be bisected by hand.
//
// Exit status: 0 all systems agreed, 1 usage error, 2 divergence found.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"protoquot/internal/protosmith"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("protosmith", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed        = fs.Int64("seed", 1, "first generator seed; system i uses seed+i")
		count       = fs.Int("count", 200, "number of systems to generate and cross-check")
		knobsFlag   = fs.String("knobs", "", "comma-separated knob overrides, e.g. components=2,taubias=0.8 (see -list-knobs)")
		listKnobs   = fs.Bool("list-knobs", false, "print the default knobs and exit")
		shrink      = fs.Bool("shrink", false, "reduce each diverging system to a minimal reproducer")
		fixtureDir  = fs.String("emit-fixture", "", "write reproducers as regression fixtures under this directory")
		replay      = fs.String("replay", "", "re-check one fixture file instead of generating")
		oracleLimit = fs.Int("oracle-limit", 0, "composed-environment state bound for the slow oracles (0 = default)")
		verbose     = fs.Bool("v", false, "print one line per checked system")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *listKnobs {
		fmt.Fprintln(stdout, protosmith.DefaultKnobs())
		return 0
	}

	knobs, err := protosmith.ParseKnobs(protosmith.DefaultKnobs(), *knobsFlag)
	if err != nil {
		fmt.Fprintf(stderr, "protosmith: %v\n", err)
		return 1
	}
	check := protosmith.CheckOptions{OracleStateLimit: *oracleLimit}

	if *replay != "" {
		sys, lerr := protosmith.LoadFixture(*replay)
		if lerr != nil {
			fmt.Fprintf(stderr, "protosmith: %v\n", lerr)
			return 1
		}
		rep := protosmith.Check(sys, check)
		fmt.Fprintf(stdout, "%s\nverdict=%s engineRuns=%d\n", sys, rep.Verdict, rep.EngineRuns)
		if rep.Divergence != nil {
			fmt.Fprintf(stdout, "%v\n", rep.Divergence)
			return 2
		}
		fmt.Fprintln(stdout, "all checks agree")
		return 0
	}

	if *count < 1 {
		fmt.Fprintln(stderr, "protosmith: -count must be at least 1")
		return 1
	}
	c := protosmith.Campaign{
		Seed:           *seed,
		Count:          *count,
		Knobs:          knobs,
		Check:          check,
		ShrinkFailures: *shrink,
		FixtureDir:     *fixtureDir,
	}
	if *verbose {
		c.Progress = func(done, failed int) {
			fmt.Fprintf(stderr, "protosmith: checked %d/%d (%d diverged)\n", done, *count, failed)
		}
	}
	rep := c.Run()
	fmt.Fprintln(stdout, rep)
	if len(rep.Failures) > 0 {
		return 2
	}
	return 0
}
