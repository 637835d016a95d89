package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Load must reject unknown top-level keys and tell the user what the
// valid vocabulary is — a typo'd scenario silently falling back to
// defaults is the worst failure mode a config loader can have. The
// deleted "parallelism", "rng" and "trace_level" knobs are rejected
// like any typo, in exactly the `unknown scenario key "..." (valid
// keys: ...)` shape bench/'s tolerant loader matches to drop the keys
// it marks optional.
func TestLoadRejectsUnknownKeysWithListing(t *testing.T) {
	for _, key := range []string{"hori_zon", "parallelism", "rng", "trace_level"} {
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
		for _, valid := range []string{"horizon", "machines", "tenants", "recal_every"} {
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

// TestRouterErrorListsVocabulary pins the router error style: an
// unknown router name reports the registered vocabulary, same idiom as
// unknown machine profiles.
func TestRouterErrorListsVocabulary(t *testing.T) {
	sc := testScenario()
	sc.Router = "teleport"
	_, err := sc.resolve()
	if err == nil {
		t.Fatal("unknown router accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"teleport"`) || !strings.Contains(msg, "registered:") {
		t.Errorf("router error does not follow the registered-vocabulary style: %v", err)
	}
	for _, r := range Routers() {
		if !strings.Contains(msg, r) {
			t.Errorf("router error missing %q from the vocabulary: %v", r, err)
		}
	}
}

// TestLoadRejectsRemovedVocabulary: the mid-run shard rebalance, the
// trace and diurnal arrival knobs and inline machine specs are gone
// from the schema, and a scenario still setting one fails to load with
// an error naming the key instead of silently running without it. (The
// removed "diurnal" and "trace" process values are TestScenarioValidation
// cases: they fail at resolve, like any unknown process.)
func TestLoadRejectsRemovedVocabulary(t *testing.T) {
	// Three slots: inside a machine spec, inside the shards block, and
	// inside a tenant's arrivals.
	const body = `{"name": "x", "horizon": 5, "db": "uniform-1G",
		"machines": [{"profile": "PC1"%s}],
		"shards": {"count": 1%s},
		"tenants": [{"name": "a", "bench": "micro",
			"arrivals": {"process": "poisson", "rate": 1%s}}]}`
	load := func(machine, shards, arrivals string) error {
		path := filepath.Join(t.TempDir(), "sc.json")
		if err := os.WriteFile(path, []byte(fmt.Sprintf(body, machine, shards, arrivals)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		return err
	}
	if err := load("", "", ""); err != nil {
		t.Fatalf("base scenario: %v", err)
	}
	cases := []struct{ key, machine, shards, arrivals string }{
		{"add_shard_at", "", `, "add_shard_at": 10`, ""},
		{"remove_shard_at", "", `, "remove_shard_at": 10`, ""},
		{"trace_file", "", "", `, "trace_file": "trace.json"`},
		{"amplitude", "", "", `, "amplitude": 0.8`},
		{"period", "", "", `, "period": 60`},
		{"spec", `, "spec": {"name": "lab-box"}`, "", ""},
	}
	for _, c := range cases {
		err := load(c.machine, c.shards, c.arrivals)
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+c.key+`"`) {
			t.Errorf("%s: err = %v, want an unknown-field error naming it", c.key, err)
		}
	}
}

// passThroughKeys are the scenario keys no shipped scenario sets, each
// kept because it sets one uaqetp.Config or serve.Config field that
// callers outside the simulator set too.
var passThroughKeys = map[string]string{
	"machine_profile": "uaqetp.Config.Machine",
	"sampling_ratio":  "uaqetp.Config.SamplingRatio",
	"cache_capacity":  "the capacity of the estimate cache in uaqetp.Config.Cache and serve.Config.Cache",
	"max_queue":       "serve.Config.MaxQueue",
}

// schemaKeys appends the JSON key path of every field reachable from t
// — "tenants[].arrivals.rate" — derived from the struct tags, as
// scenarioKeys derives the top level. Fleet's JSON form is a count or
// a list of MachineSpecs.
func schemaKeys(out []string, t reflect.Type, prefix string) []string {
	switch {
	case t == reflect.TypeOf(Fleet{}):
		return schemaKeys(out, reflect.TypeOf(MachineSpec{}), prefix+"[]")
	case t.Kind() == reflect.Pointer:
		return schemaKeys(out, t.Elem(), prefix)
	case t.Kind() == reflect.Slice:
		return schemaKeys(out, t.Elem(), prefix+"[]")
	case t.Kind() != reflect.Struct:
		return out
	}
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		if prefix != "" {
			name = prefix + "." + name
		}
		out = schemaKeys(append(out, name), t.Field(i).Type, name)
	}
	return out
}

// jsonKeys adds the key path of every object key in v to set, in
// schemaKeys' notation.
func jsonKeys(set map[string]bool, v any, prefix string) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			if prefix != "" {
				k = prefix + "." + k
			}
			set[k] = true
			jsonKeys(set, child, k)
		}
	case []any:
		for _, child := range v {
			jsonKeys(set, child, prefix+"[]")
		}
	}
}

// TestShippedScenariosCoverVocabulary keeps the scenario language to
// what scenarios run: every key of Scenario and its nested specs
// appears in some shipped scenario (examples/sim), except the
// pass-through keys. A new knob comes with a scenario that sets it, and
// a knob no scenario sets any more is a candidate for deletion.
func TestShippedScenariosCoverVocabulary(t *testing.T) {
	used := make(map[string]bool)
	for _, file := range shippedFiles(t) {
		data, err := os.ReadFile(shippedDir + file)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		jsonKeys(used, v, "")
	}
	keys := schemaKeys(nil, reflect.TypeOf(Scenario{}), "")
	for _, key := range keys {
		if _, ok := passThroughKeys[key]; !ok && !used[key] {
			t.Errorf("scenario key %q is set by no scenario under %s", key, shippedDir)
		}
	}
	for key := range passThroughKeys {
		if !slices.Contains(keys, key) {
			t.Errorf("pass-through key %q is not a scenario key", key)
		}
	}
}
