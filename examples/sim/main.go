// Command sim compares placement policies on the same simulated
// cluster scenario: a fleet of machines serving bursty multi-tenant
// traffic, where every arrival is routed by round-robin (blind),
// least-queue (load-aware, variance-blind), or least-risk — route to
// the machine maximizing the predicted probability of meeting the
// deadline, P(T_wait + T_q <= d), which folds in both the backlog's
// predicted variance and the query's own. When the scenario writes its
// fleet as a machine list (the JSON form that can name profiles and
// drift), the comparison adds least-risk-shared, the ablation that runs
// the risk arithmetic with fleet-shared units: the gap between it and
// least-risk is what per-machine calibration buys. The two JSON forms
// of a fleet run identically; only this example's table reads which
// one the file used.
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
)

const rowFormat = "%-18s %-10s %-6s %-6s %-8s %-8s %-10s\n"

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
	fmt.Printf("%-18s %-10.4f %-6d %-6d %-8d %-8.3f %-10.2f\n",
		label, rep.SLOAttainment, adm, rej, missed, p90, rep.MakeSpan)
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
	fmt.Printf(rowFormat, "router", "attainment", "adm", "rej", "missed", "p90 lat", "makespan")

	routers := []string{sim.RouterRoundRobin, sim.RouterLeastQueue, sim.RouterLeastRisk}
	if sc.Machines.Labeled() {
		// Heterogeneous fleet: show what per-machine units buy over the
		// same risk math with fleet-shared units.
		routers = []string{sim.RouterRoundRobin, sim.RouterLeastQueue, sim.RouterLeastRiskShared, sim.RouterLeastRisk}
	}
	for _, router := range routers {
		sc.Router = router
		rep, err := sim.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		printRow(router, rep)
	}

	fmt.Println()
	fmt.Println("Same arrivals, same queries, same seed: the attainment gap is the")
	fmt.Println("value of routing on predicted distributions instead of ignoring them.")

	// Queue policies (Section 6.5.3): the router stays least-risk and only
	// the order each machine drains its admitted queue changes. A
	// count-shorthand fleet first loses one machine, so that queues grow
	// deep enough for the order to matter.
	if !sc.Machines.Labeled() && sc.Machines.Size() > 1 {
		sc.Machines = sim.FleetOf(sc.Machines.Size() - 1)
	}
	fmt.Println()
	fmt.Printf("Queue policies (router %s, %d machines):\n", sc.Router, sc.Machines.Size())
	fmt.Printf(rowFormat, "queue_policy", "attainment", "adm", "rej", "missed", "p90 lat", "makespan")
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
