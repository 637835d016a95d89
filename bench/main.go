// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a later change is held to, and a traced run that
// breaks each workload down by layer. See README.md in this directory
// for the glossary and BENCHMARK.json at the repository root for the
// contract.
//
//	go run ./bench                                        every workload, timed then traced
//	go run ./bench --workload serve_http --seed 2 --seconds 12 --trace 0
//	go run ./bench -runs 3 -out A.json                    a result file for -compare
//	go run ./bench -compare A.json B.json
//
// One process measures one workload in one mode, so that the heap,
// caches and resident-set peak of one run never leak into the next; the
// no-argument form re-executes this binary once per workload and mode.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// options selects one run: one workload, one seed, one mode.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	spans    string
}

// outcome is what one run produced.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string // failed output checks
	notes     []string // sample counts, sizes, digests: printed, not compared
	metrics   map[string]float64
	spans     []span
	smoke     bool
}

func newOutcome(o options) *outcome {
	return &outcome{metrics: make(map[string]float64), smoke: o.smoke}
}

const maxProblems = 12

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == maxProblems {
		o.problems = append(o.problems, "… further problems suppressed")
	}
}

// failOp counts n failed ops and records why.
func (o *outcome) failOp(n int64, format string, args ...any) {
	o.failed += n
	o.problemf(format, args...)
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricValue and result are the shape of the last line a run prints.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runWorkload(ctx context.Context, o options) (*outcome, error) {
	var out *outcome
	var err error
	switch o.workload {
	case "cold_predict":
		out, err = runColdPredict(ctx, o)
	case "plan_choice":
		out, err = runPlanChoice(ctx, o)
	case "serve_http":
		out, err = runServeHTTP(ctx, o)
	case "sim_cluster":
		out, err = runSim(ctx, o, "cluster")
	case "sim_sharded":
		out, err = runSim(ctx, o, "sharded")
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.trace && out.attempted > 0 {
		out.metrics["fail_share"] = float64(out.failed) / float64(out.attempted)
	}
	return out, nil
}

// toResult checks the outcome against the metric tables: a timed run
// carries every end-to-end metric, a traced run every per-layer metric
// (zero where the layer does no work on that workload).
func toResult(o options, out *outcome) result {
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue)}
	names, units := metricTable(o.trace)
	for i, name := range names {
		v, ok := out.metrics[name]
		if !ok && !o.trace {
			out.problemf("end-to-end metric %s was not measured", name)
		}
		res.Metrics[name] = metricValue{v, units[i]}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out.problemf("metric %s is %v", name, v.Value)
			res.Metrics[name] = metricValue{0, v.Unit}
		}
	}
	if res.Attempted < 1 {
		out.problemf("no op was attempted")
		res.Attempted = 1
	}
	res.Correct = len(out.problems) == 0 && out.failed == 0
	return res
}

func printRun(o options, out *outcome, res result) {
	mode := "timed"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %gs)\n", o.workload, mode, o.seed, o.seconds)
	for _, n := range out.notes {
		fmt.Printf("   %s\n", n)
	}
	names, _ := metricTable(o.trace)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-32s %16.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Printf("%-32s %16d of %d\n", "failed", res.Failed, res.Attempted)
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
}

// single runs one workload in one mode and prints the result line last.
func single(o options) int {
	out, err := runWorkload(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	res := toResult(o, out)
	printRun(o, out, res)
	if o.spans != "" {
		if err := writeSpans(o.spans, out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runRecord is one run inside a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Machine machine     `json:"machine"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// all re-executes this binary once per workload and mode, runs times
// over, passing the child's output through and collecting its result
// line.
func all(base options, names []string, runs int, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	file := resultFile{Machine: machineInfo(), Seconds: base.seconds}
	fmt.Printf("machine: %+v\n", file.Machine)
	status := 0
	for run := 0; run < runs; run++ {
		for _, name := range names {
			for _, trace := range []string{"0", "1"} {
				args := []string{"--workload", name, "--seed", fmt.Sprint(base.seed),
					"--seconds", fmt.Sprint(base.seconds), "--trace", trace}
				if base.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				outBytes, err := cmd.Output()
				os.Stdout.Write(outBytes)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s --trace %s: %v\n", name, trace, err)
					status = 1
				}
				lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
				var res result
				if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
					continue
				}
				file.Runs = append(file.Runs, runRecord{Workload: name, Seed: base.seed, Trace: trace == "1", result: res})
			}
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", outPath, err)
			return 2
		}
	}
	return status
}

func main() {
	var o options
	var trace int
	var runs int
	var outPath string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: query generation, tenant names, op order, scenario seeds")
	flag.Float64Var(&o.seconds, "seconds", 12, "seconds one timed run measures")
	flag.IntVar(&trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "about 1/200 of every size: a functional check, not a measurement")
	flag.StringVar(&o.spans, "spans", "", "with --trace 1: write the spans to this file as JSONL")
	flag.IntVar(&runs, "runs", 1, "without --workload: how many times to run every workload")
	flag.StringVar(&outPath, "out", "", "without --workload: write a result file for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	flag.Parse()
	o.trace = trace != 0
	if o.smoke && o.seconds > 0.2 {
		o.seconds = 0.2
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 0:
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	case o.workload == "":
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		os.Exit(all(o, names, runs, outPath))
	default:
		os.Exit(single(o))
	}
}
