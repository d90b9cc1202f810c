package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoquot/internal/protosmith"
)

func TestRunSmallCampaign(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-seed", "1", "-count", "10"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "10 systems") || !strings.Contains(out.String(), "divergences: none") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
}

func TestRunIsDeterministic(t *testing.T) {
	runOnce := func() string {
		var out bytes.Buffer
		if code := run([]string{"-seed", "3", "-count", "8"}, &out, &bytes.Buffer{}); code != 0 {
			t.Fatalf("exit %d: %s", code, out.String())
		}
		return out.String()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("same flags, different output:\n%s\n----\n%s", a, b)
	}
}

func TestRunReplayFixture(t *testing.T) {
	dir := t.TempDir()
	sys := protosmith.Generate(4, protosmith.DefaultKnobs())
	path, err := protosmith.WriteFixture(dir, sys, "cli test")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-replay", path}, &out, &errb); code != 0 {
		t.Fatalf("replay exit %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "all checks agree") {
		t.Errorf("unexpected replay output:\n%s", out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-knobs", "nosuch=1"},
		{"-workers", "2"}, // the removed worker-count flag
		{"-count", "0"},
		{"-replay", filepath.Join(t.TempDir(), "missing.spec")},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 1 {
			t.Errorf("args %v: exit %d, want 1", args, code)
		}
	}
}

func TestRunListKnobs(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list-knobs"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if _, err := protosmith.ParseKnobs(protosmith.Knobs{}, strings.TrimSpace(out.String())); err != nil {
		t.Errorf("-list-knobs output does not parse back: %v", err)
	}
}

func TestMainBinaryNotRequired(t *testing.T) {
	// Guard the package against accidentally reading os.Args in run().
	old := os.Args
	os.Args = []string{"protosmith", "-count", "bogus"}
	defer func() { os.Args = old }()
	var out bytes.Buffer
	if code := run([]string{"-count", "2", "-seed", "5"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
}
