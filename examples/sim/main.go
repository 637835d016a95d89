// Command sim compares placement policies on the same simulated
// cluster scenario: a fleet of machines serving bursty multi-tenant
// traffic, where every arrival is routed by round-robin (blind),
// least-queue (load-aware, variance-blind), or least-risk — route to
// the machine maximizing the predicted probability of meeting the
// deadline, P(T_wait + T_q <= d), which folds in both the backlog's
// predicted variance and the query's own. On heterogeneous
// (machine-list) fleets the comparison adds least-risk-shared, the
// ablation that runs the risk arithmetic with fleet-shared units: the
// gap between it and least-risk is what per-machine calibration buys.
//
//	go run ./examples/sim                                              # homogeneous showcase
//	go run ./examples/sim -config examples/sim/scenario-hetero.json    # mixed-profile fleet
//
// Identical seed, identical arrival times, identical queries — the only
// difference between the runs is the placement decision, so the
// SLO-attainment gap is attributable to how each policy uses (or
// ignores) the predicted running-time distributions.
//
// A second table holds the router fixed and varies the per-machine
// drain order (queue_policy) instead — the paper's Section 6.5.3
// comparison of scheduling on the point estimate (sjf) against
// scheduling on the distribution (risk-slack), with the
// prediction-blind fifo and edf as baselines.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

const rowFormat = "%-18s %-10s %-8s %-6s %-6s %-8s %-8s %-10s\n"

// printRow prints one run's fleet-wide totals under label.
func printRow(label string, rep *sim.Report) {
	var adm, rej, missed int
	var p90 float64
	for _, t := range rep.Tenants {
		adm += t.Admitted
		rej += t.Rejected
		missed += t.DeadlinesMissed
		if t.Latency.P90 > p90 {
			p90 = t.Latency.P90
		}
	}
	fmt.Printf("%-18s %-10.4f %-8.4f %-6d %-6d %-8d %-8.3f %-10.2f\n",
		label, rep.SLOAttainment, rep.Fitness.Score, adm, rej, missed, p90, rep.MakeSpan)
}

func main() {
	config := flag.String("config", "examples/sim/scenario.json", "scenario file")
	flag.Parse()

	sc, err := sim.Load(*config)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Scenario %q: %d machines, %d tenants, horizon %gs, seed %d\n",
		sc.Name, sc.Machines.Size(), len(sc.Tenants), sc.Horizon, sc.Seed)
	fmt.Println()
	fmt.Printf(rowFormat, "router", "attainment", "fitness", "adm", "rej", "missed", "p90 lat", "makespan")

	routers := []string{sim.RouterRoundRobin, sim.RouterLeastQueue, sim.RouterLeastRisk}
	if sc.Machines.Labeled() {
		// Heterogeneous fleet: show what per-machine units buy over the
		// same risk math with fleet-shared units.
		routers = []string{sim.RouterRoundRobin, sim.RouterLeastQueue, sim.RouterLeastRiskShared, sim.RouterLeastRisk}
	}
	counterfactuals := make(map[string]trace.CounterfactualSummary)
	for _, router := range routers {
		sc.Router = router
		decisions := trace.NewBuffer(trace.Decisions)
		rep, err := sim.Run(sc, sim.WithTrace(decisions))
		if err != nil {
			log.Fatal(err)
		}
		counterfactuals[router] = trace.CounterfactualK(decisions.Events(), 2)
		printRow(router, rep)
	}

	fmt.Println()
	fmt.Println("Same arrivals, same queries, same seed: the attainment gap is the")
	fmt.Println("value of routing on predicted distributions instead of ignoring them.")

	// Counterfactual-K over each router's own decision trace: how often
	// did the router's 2nd-ranked candidate (by recorded P(meet)) look
	// strictly safer than the machine it actually chose? Load-only
	// routers record no probabilities, so they are never scored.
	fmt.Println()
	fmt.Println("Counterfactual-K (k=2), from the decision traces alone:")
	for _, router := range routers {
		cf := counterfactuals[router]
		if cf.Scored == 0 {
			fmt.Printf("  %-18s %d placements, none scored (no recorded risk vector)\n", router, cf.Placements)
			continue
		}
		fmt.Printf("  %-18s %d placements scored, 2nd choice strictly safer in %d (%.2f%%)\n",
			router, cf.Scored, cf.KthBetter, 100*cf.Rate())
	}

	// Counterfactual replay: re-run least-risk vs a distribution-blind
	// override on the identical arrival sequence and pinpoint where —
	// and for whom — the decisions diverge.
	sc.Router = sim.RouterLeastRisk
	res, err := sim.Replay(sc, nil, sim.Override{Router: sim.RouterLeastQueue})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("Replay (%s): %d/%d decisions diverged\n", res.Override, res.Diverged, res.Decisions)
	if res.First != nil {
		fmt.Printf("  first divergence: decision #%d, %s %q at t=%.3fs — machine %d vs %d\n",
			res.First.Index, res.First.Base.Kind, res.First.Base.Query, res.First.Base.At,
			res.First.Base.Machine, res.First.Variant.Machine)
	}
	for _, td := range res.Tenants {
		fmt.Printf("  tenant %-8s attainment %.4f -> %.4f (delta %+.4f), from traces alone\n",
			td.Tenant, td.Base.Attainment(), td.Variant.Attainment(), td.Delta)
	}

	// Queue policies (Section 6.5.3): the router stays least-risk and only
	// the order each machine drains its admitted queue changes. A
	// count-shorthand fleet first loses one machine, so that queues grow
	// deep enough for the order to matter.
	if !sc.Machines.Labeled() && sc.Machines.Size() > 1 {
		sc.Machines = sim.FleetOf(sc.Machines.Size() - 1)
	}
	fmt.Println()
	fmt.Printf("Queue policies (router %s, %d machines):\n", sc.Router, sc.Machines.Size())
	fmt.Printf(rowFormat, "queue_policy", "attainment", "fitness", "adm", "rej", "missed", "p90 lat", "makespan")
	for _, policy := range []string{serve.FIFO.Name, serve.EDF.Name, serve.RiskSlack.Name, serve.SJF.Name} {
		sc.QueuePolicy = policy
		rep, err := sim.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		printRow(policy, rep)
	}
	fmt.Println()
	fmt.Println("Same arrivals, same router: only the drain order differs. sjf orders on")
	fmt.Println("the predicted mean alone, risk-slack on the SLO quantile of the same")
	fmt.Println("distribution; fifo and edf ignore the prediction.")
}
