package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoquot/internal/api"
	"protoquot/internal/dsl"
)

// hexKey builds a synthetic but well-formed cache key (64 lowercase hex).
func hexKey(i int) string {
	return fmt.Sprintf("%064x", i)
}

func entry(i int) *api.Artifact {
	return &api.Artifact{Key: hexKey(i), Exists: true, Converter: "spec C\ninit c0\n"}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(entry(1))
	c.Put(entry(2))
	// Touch 1 so 2 becomes the eviction victim.
	if _, ok := c.Get(hexKey(1)); !ok {
		t.Fatal("entry 1 missing")
	}
	c.Put(entry(3))
	if _, ok := c.Get(hexKey(2)); ok {
		t.Error("entry 2 should have been evicted (LRU)")
	}
	if _, ok := c.Get(hexKey(1)); !ok {
		t.Error("recently used entry 1 was evicted")
	}
	if _, ok := c.Get(hexKey(3)); !ok {
		t.Error("entry 3 missing")
	}
	hits, misses, evictions, _, _ := c.Counters()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if hits != 3 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheReplaceSameKey(t *testing.T) {
	c, _ := NewCache(2, "", nil)
	c.Put(entry(1))
	e := entry(1)
	e.Converter = "spec C2\ninit c0\n"
	c.Put(e)
	if c.Len() != 1 {
		t.Errorf("replacing a key grew the cache to %d entries", c.Len())
	}
	got, _ := c.Get(hexKey(1))
	if got.Converter != e.Converter {
		t.Error("replacement entry not returned")
	}
}

func TestCacheDiskPersistenceAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	// A real converter so the artifact set is complete.
	conv := "spec C\ninit c0\next c0 x c0\n"
	if _, err := dsl.ParseString(conv); err != nil {
		t.Fatal(err)
	}
	e := &api.Artifact{Key: hexKey(7), Exists: true, Converter: conv,
		Stats: &api.WireStats{FinalStates: 1}}

	c1, err := NewCache(4, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(e)
	for _, ext := range []string{".json", ".spec", ".dot"} {
		p := filepath.Join(dir, hexKey(7)+ext)
		if _, err := os.Stat(p); err != nil {
			t.Errorf("artifact %s not persisted: %v", ext, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, hexKey(7)+".spec"))
	if err != nil || string(data) != conv {
		t.Errorf("persisted .spec differs: %q err=%v", data, err)
	}

	// A new instance over the same dir — a restarted daemon — serves the
	// entry from disk and counts a disk hit.
	c2, err := NewCache(4, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(hexKey(7))
	if !ok {
		t.Fatal("entry not recovered from disk")
	}
	if got.Converter != conv || got.Stats == nil || got.Stats.FinalStates != 1 {
		t.Errorf("recovered entry differs: %+v", got)
	}
	_, _, _, diskHits, diskErrors := c2.Counters()
	if diskHits != 1 || diskErrors != 0 {
		t.Errorf("diskHits/diskErrors = %d/%d, want 1/0", diskHits, diskErrors)
	}
	// Now in memory: a second Get must not touch disk again.
	c2.Get(hexKey(7))
	if _, _, _, dh, _ := c2.Counters(); dh != 1 {
		t.Errorf("in-memory hit went to disk (diskHits=%d)", dh)
	}

	// An envelope written before the engine became single-threaded still
	// carries the removed "workers" and "intern_shards" stats. It must load
	// as a hit, not count as a corrupt entry.
	old := hexKey(8)
	blob := fmt.Sprintf(`{"key":%q,"exists":true,"converter":%q,`+
		`"stats":{"safety_states":1,"final_states":1,"workers":1,"intern_lookups":1,"intern_shards":1}}`,
		old, conv)
	if err := os.WriteFile(filepath.Join(dir, old+".json"), []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok = c2.Get(old)
	if !ok {
		t.Fatal("envelope with workers/intern_shards stats not served from disk")
	}
	if got.Converter != conv || got.Stats == nil || got.Stats.FinalStates != 1 || got.Stats.InternLookups != 1 {
		t.Errorf("recovered envelope differs: %+v", got)
	}
	if _, _, _, diskHits, diskErrors := c2.Counters(); diskHits != 2 || diskErrors != 0 {
		t.Errorf("diskHits/diskErrors = %d/%d, want 2/0", diskHits, diskErrors)
	}
}

func TestCacheCorruptDiskEntryTolerated(t *testing.T) {
	dir := t.TempDir()
	key := hexKey(9)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	c, err := NewCache(4, dir, func(f string, v ...any) {
		fmt.Fprintf(&logged, f+"\n", v...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	_, misses, _, _, diskErrors := c.Counters()
	if misses != 1 || diskErrors != 1 {
		t.Errorf("misses/diskErrors = %d/%d, want 1/1", misses, diskErrors)
	}
	if !strings.Contains(logged.String(), "corrupt") {
		t.Errorf("corruption not logged: %q", logged.String())
	}

	// Key-mismatch corruption (entry copied under the wrong name) is also
	// rejected: content addressing means the name must match the content.
	wrong := hexKey(10)
	if err := os.WriteFile(filepath.Join(dir, wrong+".json"),
		[]byte(`{"key":"`+key+`","exists":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(wrong); ok {
		t.Error("entry with mismatched key served")
	}
}

func TestCacheRejectsNonHexKeys(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(4, dir, nil)
	// A hostile key must never reach the filesystem.
	c.Put(&api.Artifact{Key: "../../etc/passwd", Exists: true, Converter: "x"})
	if _, err := os.Stat(filepath.Join(dir, "..", "..", "etc")); err == nil {
		t.Fatal("path traversal")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("non-hex key produced files: %v", entries)
	}
	if _, _, _, _, diskErrors := c.Counters(); diskErrors == 0 {
		t.Error("refusal not counted as a disk error")
	}
}
