package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Load must reject unknown top-level keys and tell the user what the
// valid vocabulary is — a typo'd scenario silently falling back to
// defaults is the worst failure mode a config loader can have. The
// deleted "parallelism" and "rng" knobs are rejected like any typo, in
// exactly the `unknown scenario key "..." (valid keys: ...)` shape
// bench/'s tolerant loader matches to drop the keys it marks optional.
func TestLoadRejectsUnknownKeysWithListing(t *testing.T) {
	for _, key := range []string{"hori_zon", "parallelism", "rng"} {
		path := filepath.Join(t.TempDir(), "sc.json")
		if err := os.WriteFile(path, []byte(`{"name": "x", "`+key+`": 10}`), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil {
			t.Fatalf("Load accepted a scenario with the unknown key %q", key)
		}
		msg := err.Error()
		if !strings.Contains(msg, `unknown scenario key "`+key+`" (valid keys: `) {
			t.Errorf("error does not name the offending key ahead of the valid vocabulary: %v", err)
		}
		// The listing is derived from the struct tags, so it must track the
		// schema: spot-check long-standing keys.
		_, listing, _ := strings.Cut(msg, "(valid keys: ")
		for _, valid := range []string{"horizon", "machines", "tenants", "trace_level"} {
			if !strings.Contains(listing, valid) {
				t.Errorf("valid-key listing missing %q: %v", valid, err)
			}
		}
		if strings.Contains(listing, key) {
			t.Errorf("valid-key listing offers the rejected key %q: %v", key, err)
		}
	}
}

// Every shipped scenario must load cleanly: they are the documentation
// of the vocabulary. This holds under -race and -short too, where the
// shipped-scenario fixture skips running the cluster scenario.
func TestLoadAcceptsAllDocumentedKeys(t *testing.T) {
	for _, file := range shippedFiles(t) {
		if _, err := Load(shippedDir + file); err != nil {
			t.Errorf("shipped scenario %s fails to load: %v", file, err)
		}
	}
}
