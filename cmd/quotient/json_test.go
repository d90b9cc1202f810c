package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoquot/internal/api"
	"protoquot/internal/dsl"
	"protoquot/internal/server"
)

// TestRunJSONMatchesServerEnvelope is the no-drift contract: `quotient
// -json` must emit the same envelope POST /v1/derive returns for identical
// inputs — same cache key, same converter bytes, same stats — modulo the
// per-request service fields. The daemon side goes through api.Client, the
// same typed client quotd itself uses between shards.
func TestRunJSONMatchesServerEnvelope(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", worldText)

	var out, errb strings.Builder
	code := run([]string{"-service", svc, "-env", env, "-json", "-prune", "-minimize"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var cli api.DeriveResponse
	if err := json.Unmarshal([]byte(out.String()), &cli); err != nil {
		t.Fatalf("-json output is not a DeriveResponse: %v\n%s", err, out.String())
	}
	if !cli.Exists || cli.Converter == "" {
		t.Fatalf("envelope missing converter: %+v", cli)
	}
	if cli.RequestID != "" || cli.Cached || cli.Coalesced || cli.Shard != "" {
		t.Errorf("per-request service fields must stay zero in CLI output: %+v", cli)
	}
	if _, err := dsl.ParseString(cli.Converter); err != nil {
		t.Errorf("envelope converter does not parse: %v", err)
	}
	if cli.Stats == nil || cli.Stats.FinalStates == 0 {
		t.Errorf("envelope stats missing: %+v", cli.Stats)
	}

	// The daemon, given the same inputs, must agree byte for byte.
	srv, err := server.New(server.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	daemon, err := api.NewClient(ts.URL).Derive(context.Background(), &api.DeriveRequest{
		Service: api.SpecSource{Inline: serviceText},
		Envs:    []api.SpecSource{{Inline: worldText}},
		Options: api.DeriveOptions{Prune: true, Minimize: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if daemon.Key != cli.Key {
		t.Errorf("CLI and daemon disagree on the content address:\n cli: %s\nsrvr: %s",
			cli.Key, daemon.Key)
	}
	if daemon.Converter != cli.Converter {
		t.Errorf("CLI and daemon converters differ:\n cli: %q\nsrvr: %q",
			cli.Converter, daemon.Converter)
	}
	// Stats must agree exactly except for wall times, which measure the run.
	clearWall := func(s api.WireStats) api.WireStats {
		s.SafetyWallMS, s.ProgressWallMS, s.EmitWallMS, s.EnvExpansionMS = 0, 0, 0, 0
		return s
	}
	if clearWall(*daemon.Stats) != clearWall(*cli.Stats) {
		t.Errorf("CLI and daemon stats differ:\n cli: %+v\nsrvr: %+v",
			*cli.Stats, *daemon.Stats)
	}
}

// TestRunJSONNoConverter: nonexistence keeps exit code 2 and carries the
// proof in the envelope.
func TestRunJSONNoConverter(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "bad.spec", `
spec D
init b0
ext b0 del b1
ext b1 fwd b0
ext b0 acc b0
`)
	var out, errb strings.Builder
	code := run([]string{"-service", svc, "-env", env, "-json"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2: %s", code, errb.String())
	}
	var cli api.DeriveResponse
	if err := json.Unmarshal([]byte(out.String()), &cli); err != nil {
		t.Fatalf("-json output is not a DeriveResponse: %v\n%s", err, out.String())
	}
	if cli.Exists {
		t.Error("exists should be false")
	}
	if cli.Error == nil || cli.Error.Code != api.ErrCodeNoQuotient {
		t.Fatalf("want no_quotient, got %+v", cli.Error)
	}
	if cli.Error.Phase != "safety" || len(cli.Error.Witness) == 0 {
		t.Errorf("want safety proof with witness, got %+v", cli.Error)
	}
	// The human-readable diagnostic still goes to stderr alongside.
	if !strings.Contains(errb.String(), "nonexistence proved") {
		t.Errorf("stderr diagnostic missing: %s", errb.String())
	}
}

// TestRunJSONToFile: -json respects -o.
func TestRunJSONToFile(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", worldText)
	outFile := filepath.Join(dir, "envelope.json")
	var out, errb strings.Builder
	if code := run([]string{"-service", svc, "-env", env, "-json", "-o", outFile}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("-o set but stdout not empty: %q", out.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var cli api.DeriveResponse
	if err := json.Unmarshal(data, &cli); err != nil {
		t.Fatalf("file is not a DeriveResponse: %v", err)
	}
	if !cli.Exists {
		t.Errorf("envelope: %+v", cli)
	}
}
