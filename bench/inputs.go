package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"

	uaqetp "repro"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// dbSeed is the seed of every database the benchmark opens. The
// workload seed never reaches the program under test: it drives query
// generation, tenant and op order, and the simulated scenarios' seeds.
const dbSeed = 1

// buildCatalog regenerates the database's catalog on the harness side,
// which is what workload.Generate needs to draw queries for a seed of
// the harness's choosing (System.GenerateWorkload is tied to the
// database seed).
func buildCatalog(kind uaqetp.DBKind) *catalog.Catalog {
	return catalog.Build(datagen.Generate(datagen.ConfigFor(kind, dbSeed)))
}

// distinctQueries draws queries of the given benchmarks in turn, for the
// seed, and keeps the first occurrence of each plan signature until it
// has exactly n. Cold workloads need pairwise-distinct signatures so
// that every op misses the estimate cache; falling short fails set-up
// rather than quietly measuring a warmer workload.
func distinctQueries(ctx context.Context, sys *uaqetp.System, cat *catalog.Catalog, benches []workload.Benchmark, n int, seed int64) ([]*uaqetp.Query, error) {
	seen := make(map[string]bool, n)
	out := make([]*uaqetp.Query, 0, n)
	// Each round draws n per benchmark under a fresh sub-seed; a few
	// rounds cover the share lost to repeated signatures.
	for round := int64(0); round < 8 && len(out) < n; round++ {
		pools := make([][]*uaqetp.Query, len(benches))
		for i, b := range benches {
			qs, err := workload.Generate(b, cat, n, seed*1000+round*10+int64(i))
			if err != nil {
				return nil, fmt.Errorf("generate %v: %w", b, err)
			}
			pools[i] = qs
		}
		for k := 0; k < n && len(out) < n; k++ {
			for _, pool := range pools {
				q := pool[k]
				p, err := sys.Planner().BuildPlan(ctx, q)
				if err != nil {
					return nil, fmt.Errorf("plan %s: %w", q.Name, err)
				}
				if sig := p.String(); !seen[sig] {
					seen[sig] = true
					// Names repeat across rounds; the name seeds the
					// measured time, so make it unique too.
					q.Name = fmt.Sprintf("%s-r%d", q.Name, round)
					out = append(out, q)
					if len(out) == n {
						break
					}
				}
			}
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("distinct queries: wanted %d pairwise-distinct plan signatures, generation yielded %d", n, len(out))
	}
	return out, nil
}

// mixedQueries draws n queries split evenly over the benchmarks,
// interleaved, repeats allowed: the pool of a warm workload.
func mixedQueries(cat *catalog.Catalog, benches []workload.Benchmark, n int, seed int64) ([]*uaqetp.Query, error) {
	per := (n + len(benches) - 1) / len(benches)
	out := make([]*uaqetp.Query, 0, per*len(benches))
	pools := make([][]*uaqetp.Query, len(benches))
	for i, b := range benches {
		qs, err := workload.Generate(b, cat, per, seed*1000+int64(i))
		if err != nil {
			return nil, fmt.Errorf("generate %v: %w", b, err)
		}
		pools[i] = qs
	}
	for k := 0; k < per; k++ {
		for _, pool := range pools {
			out = append(out, pool[k])
		}
	}
	return out[:n], nil
}

// shuffle permutes the queries with the seed: op order is an input.
func shuffle(qs []*uaqetp.Query, seed int64) {
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
}

// opDigest fingerprints an op sequence: equal seeds must give equal
// digests, different seeds different ones.
func opDigest(ops []string) string {
	h := sha256.New()
	for _, op := range ops {
		h.Write([]byte(op))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func queryDigest(ctx context.Context, sys *uaqetp.System, qs []*uaqetp.Query) (string, error) {
	ops := make([]string, len(qs))
	for i, q := range qs {
		p, err := sys.Planner().BuildPlan(ctx, q)
		if err != nil {
			return "", err
		}
		ops[i] = p.String()
	}
	return opDigest(ops), nil
}

// fidelity is the paper's headline, measured on a fixed query set.
type fidelity struct {
	rsErr    float64 // 1 - Spearman r_s between predicted sigma and |actual - mean|
	dn       float64 // stats.Dn of the normalized errors
	cov90Err float64 // |observed coverage of the central 90% interval - 0.90|
	mape     float64 // mean |actual - mean| / actual
	overhead float64 // mean SampleCost / FullCost: the paper's Fig. 9
}

// fidelityBenches are the benchmarks a fidelity phase draws from.
var fidelityBenches = []workload.Benchmark{workload.SelJoin, workload.TPCH}

// measureFidelity runs Measure and PredictContext over n queries drawn
// with a fixed seed, so the result is a pure function of the program
// under test: it compares exactly across runs, seeds and commits, and a
// speed-up that moves it changed behaviour.
func measureFidelity(ctx context.Context, sys *uaqetp.System, cat *catalog.Catalog, benches []workload.Benchmark, n int) (fidelity, error) {
	qs, err := mixedQueries(cat, benches, n, 0)
	if err != nil {
		return fidelity{}, err
	}
	actual := make([]float64, n)
	mu := make([]float64, n)
	sigma := make([]float64, n)
	absErr := make([]float64, n)
	var within, mape, overhead float64
	for i, q := range qs {
		m, err := sys.Measure(q)
		if err != nil {
			return fidelity{}, fmt.Errorf("fidelity: measure %s: %w", q.Name, err)
		}
		p, err := sys.PredictContext(ctx, q)
		if err != nil {
			return fidelity{}, fmt.Errorf("fidelity: predict %s: %w", q.Name, err)
		}
		actual[i], mu[i], sigma[i] = m.Actual, p.Mean(), p.Sigma()
		absErr[i] = math.Abs(m.Actual - p.Mean())
		if lo, hi := p.Interval(0.90); m.Actual >= lo && m.Actual <= hi {
			within++
		}
		if m.Actual > 0 {
			mape += absErr[i] / m.Actual
		}
		if m.FullCost > 0 {
			overhead += m.SampleCost / m.FullCost
		}
	}
	fn := float64(n)
	return fidelity{
		rsErr:    1 - stats.Spearman(sigma, absErr),
		dn:       stats.Dn(stats.NormalizedErrors(actual, mu, sigma), nil),
		cov90Err: math.Abs(within/fn - 0.90),
		mape:     mape / fn,
		overhead: overhead / fn,
	}, nil
}

func (f fidelity) into(m map[string]float64) {
	m["rs_err"] = f.rsErr
	m["dn"] = f.dn
	m["cov90_err"] = f.cov90Err
	m["mape"] = f.mape
}

// ---------------------------------------------------------------------
// Scenario files.

//go:embed scenarios/*.json
var scenarioFS embed.FS

// scenarioFile is the on-disk shape of bench/scenarios/*.json: the
// scenario as sim.Load reads it, plus the top-level keys the roadmap may
// delete. When sim.Load no longer knows an optional key the loader
// drops it and retries, so removing a knob (the default must then be
// the fast path) does not mean editing the benchmark.
type scenarioFile struct {
	Optional []string                   `json:"optional"`
	Scenario map[string]json.RawMessage `json:"scenario"`
}

var unknownKeyRE = regexp.MustCompile(`unknown (?:scenario key|field) "([^"]+)"`)

// loadScenario reads one embedded scenario through sim.Load.
func loadScenario(name string) (sim.Scenario, []string, error) {
	data, err := scenarioFS.ReadFile("scenarios/" + name + ".json")
	if err != nil {
		return sim.Scenario{}, nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	return loadScenarioBytes(name, data)
}

// loadScenarioBytes is the tolerant loader. sim.Load takes a path, so the
// scenario body is written to a scratch directory inside the working
// directory first.
func loadScenarioBytes(name string, data []byte) (sc sim.Scenario, dropped []string, err error) {
	var file scenarioFile
	if err := json.Unmarshal(data, &file); err != nil {
		return sim.Scenario{}, nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	dir, err := os.MkdirTemp(".", ".bench_tmp")
	if err != nil {
		return sim.Scenario{}, nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, name+".json")
	optional := make(map[string]bool, len(file.Optional))
	for _, k := range file.Optional {
		optional[k] = true
	}
	for {
		body, err := json.Marshal(file.Scenario)
		if err != nil {
			return sim.Scenario{}, nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			return sim.Scenario{}, nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		sc, err := sim.Load(path)
		if err == nil {
			return sc, dropped, nil
		}
		m := unknownKeyRE.FindStringSubmatch(err.Error())
		if m == nil || !optional[m[1]] {
			return sim.Scenario{}, nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		if _, present := file.Scenario[m[1]]; !present {
			return sim.Scenario{}, nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		delete(file.Scenario, m[1])
		dropped = append(dropped, m[1])
	}
}
