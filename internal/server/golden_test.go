package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"protoquot/internal/api"
)

// TestGoldenHTTPResponses pins the exact wire shape of the HTTP API. The
// envelope is part of the daemon's contract (and shared with `quotient
// -json`), so any field rename, addition, or re-ordering must show up as a
// reviewed diff here, not as a silent client breakage.
//
// Regenerate with:
//
//	PROTOQUOT_GOLDEN=update go test -run TestGoldenHTTPResponses ./internal/server
func TestGoldenHTTPResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	post := func(path string, body any) []byte {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	minimized := simpleRequest()
	minimized.Options.Prune = true
	minimized.Options.Minimize = true

	cases := []struct {
		name string
		body []byte
	}{
		{"derive-ok", post("/v1/derive", simpleRequest())},
		{"derive-minimized", post("/v1/derive", minimized)},
		{"derive-no-converter", post("/v1/derive", api.DeriveRequest{
			Service: api.SpecSource{Inline: serviceText},
			Envs:    []api.SpecSource{{Inline: doomedWorld}},
		})},
		{"derive-bad-request", post("/v1/derive", api.DeriveRequest{
			Service: api.SpecSource{Inline: serviceText},
		})},
		{"derive-bad-spec", post("/v1/derive", api.DeriveRequest{
			Service: api.SpecSource{Inline: "spec X\ninit\n"},
			Envs:    []api.SpecSource{{Inline: worldText}},
		})},
		{"spec-upload", post("/v1/specs", api.SpecUploadRequest{Text: serviceText})},
	}

	update := os.Getenv("PROTOQUOT_GOLDEN") == "update"
	for _, tc := range cases {
		got := normalizeGolden(t, tc.body)
		path := filepath.Join("testdata", "golden", tc.name+".json")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with PROTOQUOT_GOLDEN=update)", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response drifted from golden\n--- got ---\n%s\n--- want ---\n%s",
				tc.name, got, want)
		}
	}
}

// normalizeGolden zeroes the volatile per-request fields — request id, wall
// times — while leaving every semantic field (keys, converters, counters)
// exact.
func normalizeGolden(t *testing.T, body []byte) []byte {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if _, ok := v["request_id"]; ok {
		v["request_id"] = "r000000"
	}
	if _, ok := v["elapsed_ms"]; ok {
		v["elapsed_ms"] = 0
	}
	if stats, ok := v["stats"].(map[string]any); ok {
		for _, k := range []string{"safety_wall_ms", "progress_wall_ms", "emit_wall_ms", "env_expansion_ms"} {
			if _, ok := stats[k]; ok {
				stats[k] = 0
			}
		}
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
