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
	for _, r := range routers() {
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

// TestResolveBoundsScenarioSize: a size field past its bound is an error
// from resolve naming the field and the bound, before anything is
// allocated for it (a fleet of 2⁶² machines used to panic in makeslice,
// a rate of 1e300 in sizing the arrivals, and a bursty cycle of 1e-300
// spun in the phase loop); at the bound, and for every shipped and
// bench scenario, it resolves.
func TestResolveBoundsScenarioSize(t *testing.T) {
	const huge = 1 << 62
	tenant := func(sc *Scenario) *TenantSpec { return &sc.Tenants[0] }
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string // "" resolves
	}{
		{"machines", func(sc *Scenario) { sc.Machines = FleetOf(huge) }, "machines: 4611686018427387904 above the bound of 10000"},
		{"machines past", func(sc *Scenario) { sc.Machines = FleetOf(maxMachines + 1) }, "above the bound of 10000"},
		{"machines at", func(sc *Scenario) { sc.Machines = FleetOf(maxMachines) }, ""},
		{"machine list count", func(sc *Scenario) { sc.Machines = FleetList(MachineSpec{Count: huge}) },
			"machine 0: count 4611686018427387904 takes the fleet past 10000 machines"},
		{"machine list sum", func(sc *Scenario) {
			sc.Machines = FleetList(MachineSpec{Count: 6000}, MachineSpec{Profile: "PC2", Count: 6000})
		}, "machine 1: count 6000 takes the fleet past 10000 machines"},
		{"machine list at", func(sc *Scenario) {
			sc.Machines = FleetList(MachineSpec{Count: 5000}, MachineSpec{Profile: "PC2", Count: 5000})
		}, ""},
		{"tenant count", func(sc *Scenario) { tenant(sc).Count = huge }, `tenant "alpha": count 4611686018427387904 takes the scenario past 100000 tenant members`},
		{"tenant count sum", func(sc *Scenario) {
			tenant(sc).Count = 60_000
			tenant(sc).Arrivals.Rate = 1e-3
			second := *tenant(sc)
			second.Name = "beta"
			sc.Tenants = append(sc.Tenants, second)
		}, `tenant "beta": count 60000 takes the scenario past 100000 tenant members`},
		{"tenant count at", func(sc *Scenario) { tenant(sc).Count, tenant(sc).Arrivals.Rate = maxMembers, 1e-3 }, ""},
		{"queries", func(sc *Scenario) { tenant(sc).Queries = huge }, `tenant "alpha": queries 4611686018427387904 above the bound of 256`},
		{"queries at", func(sc *Scenario) { tenant(sc).Queries = maxQueries }, ""},
		{"rate", func(sc *Scenario) { tenant(sc).Arrivals.Rate = 1e300 }, "tenants expect 2e+301 arrivals (count × arrivals.rate × horizon), above the bound of 10000000"},
		{"horizon", func(sc *Scenario) { sc.Horizon = 1e300 }, "expect 4e+300 arrivals"},
		{"members × rate", func(sc *Scenario) { tenant(sc).Count, tenant(sc).Arrivals.Rate = maxMembers, 6 }, "expect 1.2e+07 arrivals"},
		{"arrivals at", func(sc *Scenario) { tenant(sc).Arrivals.Rate = maxArrivals / sc.Horizon }, ""},
		{"cycle", func(sc *Scenario) {
			sc.Horizon = 1
			tenant(sc).Arrivals = ArrivalSpec{Process: processBursty, Rate: 4, Cycle: 1e-300}
		}, "ON/OFF cycles, above the bound of 1000"},
		{"cycle at", func(sc *Scenario) {
			tenant(sc).Arrivals = ArrivalSpec{Process: processBursty, Rate: 4, Cycle: sc.Horizon / maxBurstCycles}
		}, ""},
	}
	for _, c := range cases {
		sc := testScenario()
		c.mutate(&sc)
		_, err := sc.resolve()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v, want it to resolve", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}

	shipped, err := filepath.Glob("../../examples/sim/*.json")
	if err != nil || len(shipped) == 0 {
		t.Fatalf("no shipped scenarios: %v", err)
	}
	for _, path := range shipped {
		sc, err := Load(path)
		if err == nil {
			_, err = sc.resolve()
		}
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	benched, err := filepath.Glob("../../bench/scenarios/*.json")
	if err != nil || len(benched) == 0 {
		t.Fatalf("no bench scenarios: %v", err)
	}
	for _, path := range benched {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Scenario Scenario }
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := file.Scenario.resolve(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
