// Command uaqp is the command-line front end of the reproduction:
//
//	uaqp list                      list the regenerable tables and figures
//	uaqp experiment <id> [flags]   regenerate one table or figure
//	uaqp demo [flags]              predict-and-run a benchmark workload
//	uaqp batch [flags]             batched concurrent prediction throughput demo
//	uaqp serve [flags]             multi-tenant HTTP prediction service (one serving shard with -shard)
//	uaqp front [flags]             sharded-topology routing tier over a directory file
//	uaqp sim [flags]               discrete-event cluster simulation from a scenario file
//
// Flags:
//
//	-queries N   queries per experimental cell (default 24)
//	-seed S      master seed (default 1)
//	-bench B     demo benchmark: micro | seljoin | tpch (default tpch)
//	-db D        demo database: uniform-1G | skewed-1G | uniform-10G | skewed-10G
//	-machine M   demo machine: PC1 | PC2
//	-sr R        demo sampling ratio (default 0.05)
//	-workers W   batch worker pool size (default GOMAXPROCS)
//	-addr A      serve/front listen address (default :8080)
//	-tenants T   serve tenant names, comma-separated (default "alpha,beta")
//	-confidence  serve SLO admission confidence (default 0.95)
//	-deadline D  serve default deadline in virtual seconds (default 1.0)
//	-shard NAME  serve as the named shard, registering in -dir
//	-dir FILE    static shard-directory file (serve registration, front routing)
//	-rate R      front token-bucket refill rate, requests/second (0 = unlimited)
//	-burst B     front token-bucket capacity (default = rate)
//	-predictive  front sheds hopeless submissions before spending tokens
//	-trace FILE  sim decision-trace output file (JSONL, deterministic)
//	-trace-level sim trace detail: off | decisions | full (default decisions)
//	-calib FILE  sim calibration-stream output file (JSONL, deterministic)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	uaqetp "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exper"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = list()
	case "experiment":
		err = experiment(args)
	case "demo":
		err = demo(args)
	case "batch":
		err = batch(args)
	case "serve":
		err = serveCmd(args)
	case "front":
		err = frontCmd(args)
	case "sim":
		err = simCmd(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uaqp:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  uaqp list
  uaqp experiment <id> [-queries N] [-seed S]
  uaqp demo [-bench B] [-db D] [-machine M] [-sr R] [-queries N] [-seed S]
  uaqp batch [-bench B] [-db D] [-machine M] [-sr R] [-queries N] [-seed S] [-workers W]
  uaqp serve [-addr A] [-db D] [-machine M] [-sr R] [-seed S] [-tenants T] [-confidence C] [-deadline D] [-shard NAME -dir FILE]
  uaqp front -dir FILE [-addr A] [-rate R] [-burst B] [-predictive] [-confidence C]
  uaqp sim -config FILE [-seed S] [-router R] [-o FILE] [-trace FILE] [-trace-level L] [-calib FILE] [-cpuprofile FILE] [-memprofile FILE]`)
}

// simCmd runs a discrete-event cluster-simulation scenario and prints
// the structured report. For a fixed scenario file and seed the output
// is byte-identical across runs — and so are the decision trace JSONL
// written by -trace and the calibration stream written by -calib
// (pinned by TestShippedScenariosDeterministic).
func simCmd(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	config := fs.String("config", "", "scenario JSON file (see examples/sim/scenario.json)")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 keeps the file's)")
	router := fs.String("router", "", "override the scenario router: round-robin | least-queue | least-risk | least-risk-shared")
	out := fs.String("o", "", "write the report to a file instead of stdout")
	traceOut := fs.String("trace", "", "write the decision trace as JSONL to a file")
	traceLevel := fs.String("trace-level", "decisions", "decision trace detail -trace records: off | decisions | full")
	calibOut := fs.String("calib", "", "write the calibration stream (one observed-vs-predicted event per executed request) as JSONL to a file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the simulation to a file (inspect with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the simulation to a file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *config == "" {
		return fmt.Errorf("sim: -config is required")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Snapshot after the run (and after a final GC) so the profile
		// shows the simulation's allocation sites, not startup noise.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sim: memprofile:", err)
			}
		}()
	}
	sc, err := sim.Load(*config)
	if err != nil {
		return err
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *router != "" {
		sc.Router = *router
	}

	level, err := trace.ParseLevel(*traceLevel)
	if err != nil {
		return err
	}

	// A sink is attached only when its file was asked for, so a plain run
	// stays on the nil-recorder path.
	var opts []sim.RunOption
	events, calibEvents := trace.NewBuffer(level), trace.NewBuffer(trace.Full)
	if *traceOut != "" {
		opts = append(opts, sim.WithTrace(events))
	}
	if *calibOut != "" {
		opts = append(opts, sim.WithCalibration(calibEvents))
	}
	rep, err := sim.Run(sc, opts...)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		evs := events.Events()
		if err := writeJSONL(*traceOut, evs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sim: %d trace events (%s) -> %s\n", len(evs), level, *traceOut)
	}
	if *calibOut != "" {
		evs := calibEvents.Events()
		if err := writeJSONL(*calibOut, evs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sim: %d calibration events -> %s\n", len(evs), *calibOut)
	}
	fmt.Fprintf(os.Stderr, "sim: fitness %.4f (attainment %.4f, fairness %.4f, p95 %.3fs, util %.3f)\n",
		rep.Fitness.Score, rep.Fitness.Attainment, rep.Fitness.Fairness,
		rep.Fitness.LatencyP95, rep.Fitness.Utilization)

	data, err := rep.JSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out != "" {
		return os.WriteFile(*out, data, 0o644)
	}
	_, err = os.Stdout.Write(data)
	return err
}

// writeJSONL writes a deterministic event stream to path.
func writeJSONL(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveCmd starts the multi-tenant HTTP prediction service: one System
// per tenant over a shared sampling-pass cache, deadline-aware
// admission, and a background dispatcher draining admitted work. With
// -shard and -dir the process serves as one shard of a multi-process
// topology: it registers its name and address in the static directory
// file, which a `uaqp front` process routes from.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	db := fs.String("db", "uniform-1G", "database kind (all tenants)")
	machine := fs.String("machine", "PC1", "machine profile")
	sr := fs.Float64("sr", 0.05, "sampling ratio")
	seed := fs.Int64("seed", 1, "master seed")
	tenants := fs.String("tenants", "alpha,beta", "comma-separated tenant names")
	confidence := fs.Float64("confidence", 0.95, "SLO admission confidence")
	deadline := fs.Float64("deadline", 1.0, "default deadline (virtual seconds)")
	shardName := fs.String("shard", "", "serve as this named shard, registering in -dir")
	dirFile := fs.String("dir", "", "shard directory file to register in (requires -shard)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := datagen.ParseKind(*db)
	if err != nil {
		return err
	}
	if (*shardName == "") != (*dirFile == "") {
		return fmt.Errorf("serve: -shard and -dir must be used together")
	}
	if *shardName != "" {
		if err := registerShard(*dirFile, *shardName, *addr, *seed); err != nil {
			return err
		}
		fmt.Printf("shard %q registered in %s\n", *shardName, *dirFile)
	}

	srv := serve.New(serve.Config{})
	slo := serve.SLO{Confidence: *confidence, DefaultDeadline: *deadline}
	for _, name := range strings.Split(*tenants, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := srv.AddTenant(name, uaqetp.Config{
			DB: kind, Machine: *machine, SamplingRatio: *sr, Seed: *seed,
		}, slo); err != nil {
			return err
		}
		fmt.Printf("tenant %q ready (%v on %s, SR=%g)\n", name, kind, *machine, *sr)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	stop := srv.StartDispatcher(50 * time.Millisecond)
	fmt.Printf("serving on %s — POST /predict /submit /drain /recalibrate, GET /stats /healthz\n", *addr)
	return serveUntilDone(context.Background(), ln, srv.Handler(), stop)
}

// registerShard upserts this process into the static directory file,
// creating the file on first registration. The advertised address is
// the listen address with a loopback host filled in when only a port
// was given. Registration is a read-modify-write of a shared file, and
// shard processes typically start concurrently, so it runs under a
// sibling lockfile — without it, two shards loading the same snapshot
// would silently drop each other's entries.
func registerShard(dirFile, name, addr string, seed int64) error {
	unlock, err := lockFile(dirFile + ".lock")
	if err != nil {
		return err
	}
	defer unlock()

	file, err := shard.LoadFile(dirFile)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		file = &shard.File{Seed: seed}
	}
	advertise := addr
	if strings.HasPrefix(advertise, ":") {
		advertise = "127.0.0.1" + advertise
	}
	if !strings.Contains(advertise, "://") {
		advertise = "http://" + advertise
	}
	file.Register(name, advertise)
	return file.Save(dirFile)
}

// lockFile takes an advisory lock by exclusively creating path,
// retrying briefly while another process holds it. A lock older than
// ten seconds is treated as abandoned (a crashed registrant) and
// broken.
func lockFile(path string) (func(), error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, err
		}
		if st, serr := os.Stat(path); serr == nil && time.Since(st.ModTime()) > 10*time.Second {
			os.Remove(path)
			continue
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("uaqp: timed out waiting for lock %s", path)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// frontCmd starts the routing tier of the sharded topology: it builds
// the consistent-hash directory from the shared directory file and
// routes tenant traffic to the registered `uaqp serve -shard`
// processes, shedding at the front door first.
func frontCmd(args []string) error {
	fs := flag.NewFlagSet("front", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	dirFile := fs.String("dir", "", "shard directory file (written by `uaqp serve -shard`)")
	rate := fs.Float64("rate", 0, "token-bucket refill rate, requests/second (0 = unlimited)")
	burst := fs.Float64("burst", 0, "token-bucket capacity (0 = rate)")
	predictive := fs.Bool("predictive", false, "shed hopeless submissions before spending tokens")
	confidence := fs.Float64("confidence", 0.5, "predictive-shed confidence for submissions without one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dirFile == "" {
		return fmt.Errorf("front: -dir is required")
	}
	file, err := shard.LoadFile(*dirFile)
	if err != nil {
		return err
	}
	front, err := shard.NewFront(file, shard.FrontConfig{
		FrontDoor:  shard.FrontDoorConfig{Rate: *rate, Burst: *burst, Predictive: *predictive},
		Confidence: *confidence,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("front on %s over %d shard(s) — POST /predict /submit, GET /place /metrics /healthz\n",
		*addr, len(file.Shards))
	return serveUntilDone(context.Background(), ln, front.Handler(), func() {})
}

// batch demonstrates the concurrent batched prediction pipeline: it
// predicts a whole workload through System.PredictBatchContext and reports
// per-query results plus serial-vs-pooled wall-clock throughput.
func batch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	bench := fs.String("bench", "seljoin", "benchmark: micro | seljoin | tpch")
	db := fs.String("db", "uniform-1G", "database kind")
	machine := fs.String("machine", "PC1", "machine profile")
	sr := fs.Float64("sr", 0.05, "sampling ratio")
	queries := fs.Int("queries", 64, "number of queries in the batch")
	seed := fs.Int64("seed", 1, "master seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := workload.ParseBenchmark(*bench)
	if err != nil {
		return err
	}
	kind, err := datagen.ParseKind(*db)
	if err != nil {
		return err
	}

	sys, err := uaqetp.Open(uaqetp.Config{
		DB: kind, Machine: *machine, SamplingRatio: *sr, Seed: *seed,
	})
	if err != nil {
		return err
	}
	qs, err := sys.GenerateWorkload(b, *queries)
	if err != nil {
		return err
	}

	t0 := time.Now()
	preds, err := sys.PredictBatchContext(context.Background(), qs, uaqetp.WithWorkers(*workers))
	if err != nil {
		return err
	}
	pooled := time.Since(t0)

	fmt.Printf("%v on %v (%s), SR=%g: %d queries, workers=%d\n\n",
		b, kind, *machine, *sr, len(qs), *workers)
	fmt.Printf("%-18s %-12s %-12s %-12s\n", "query", "mean(s)", "sigma(s)", "p95(s)")
	for i, p := range preds {
		fmt.Printf("%-18s %-12.4f %-12.4f %-12.4f\n",
			qs[i].Name, p.Mean(), p.Sigma(), p.Dist.Quantile(0.95))
	}
	cs := sys.CacheStats()
	fmt.Printf("\npooled wall clock: %v (%.1f predictions/s), plan-memo %d hits / %d misses\n",
		pooled, float64(len(qs))/pooled.Seconds(), cs.Hits, cs.Misses)
	return nil
}

func list() error {
	fmt.Println("Regenerable experiments (paper tables and figures):")
	for _, r := range exper.Reports {
		fmt.Printf("  %-10s %s\n", r.ID, r.Desc)
	}
	return nil
}

func experiment(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("experiment: missing id (try 'uaqp list')")
	}
	id := args[0]
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	queries := fs.Int("queries", 24, "queries per experimental cell")
	seed := fs.Int64("seed", 1, "master seed")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	rep, err := exper.ReportByID(id)
	if err != nil {
		return err
	}
	lab := exper.NewLab()
	return rep.Gen(os.Stdout, lab, exper.Sizing{QueriesPerCell: *queries, Seed: *seed})
}

func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	bench := fs.String("bench", "tpch", "benchmark: micro | seljoin | tpch")
	db := fs.String("db", "uniform-1G", "database kind")
	machine := fs.String("machine", "PC1", "machine profile")
	sr := fs.Float64("sr", 0.05, "sampling ratio")
	queries := fs.Int("queries", 14, "number of queries")
	seed := fs.Int64("seed", 1, "master seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	b, err := workload.ParseBenchmark(*bench)
	if err != nil {
		return err
	}
	kind, err := datagen.ParseKind(*db)
	if err != nil {
		return err
	}

	lab := exper.NewLab()
	res, err := lab.Run(exper.Setting{
		Bench: b, DB: kind, Machine: *machine, SR: *sr,
		Variant: core.All, NumQueries: *queries, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%v on %v (%s), SR=%g, %d queries\n\n",
		b, kind, *machine, *sr, len(res.Outcomes))
	fmt.Printf("%-18s %-12s %-12s %-12s %-10s\n",
		"query", "pred(s)", "sigma(s)", "actual(s)", "|err|(s)")
	for _, o := range res.Outcomes {
		fmt.Printf("%-18s %-12.4f %-12.4f %-12.4f %-10.4f\n",
			o.Name, o.PredMean, o.PredSigma, o.Actual, o.Err)
	}
	fmt.Printf("\nr_s=%.4f  r_p=%.4f  D_n=%.4f  sampling overhead=%.4f\n",
		res.RS, res.RP, res.Dn, res.MeanOverhead)
	return nil
}
