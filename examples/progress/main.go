// Command progress demonstrates the uncertainty-aware query progress
// indicator (Section 6.5.2): the predictor supplies a per-operator
// breakdown of the running-time distribution, and internal/progress
// turns it into a live remaining-time distribution that tightens as
// operators complete — confidence bands instead of a bare percentage,
// exactly the building block the paper proposes.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	uaqetp "repro"
	"repro/internal/progress"
)

func main() {
	fmt.Println("Uncertainty-aware query progress indicator demo")
	fmt.Println()

	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	q := &uaqetp.Query{
		Name:   "reporting-join",
		Tables: []string{"customer", "orders", "lineitem"},
		Preds: []uaqetp.Predicate{
			{Col: "o_orderdate", Op: uaqetp.Le, Lo: 2000},
		},
		Joins: []uaqetp.JoinCond{
			{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
			{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
		},
		Agg: &uaqetp.AggSpec{GroupCol: "c_nationkey"},
	}

	pred, actual, err := sys.PredictAndRunContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Predicted total: %.4f s (sigma %.4f); actual: %.4f s\n\n",
		pred.Mean(), pred.Sigma(), actual)

	ind := progress.New(pred)
	fmt.Printf("%-26s %-10s %-24s %s\n", "event", "% done", "90% ETA band (s)", "bar")
	report := func(event string) {
		lo, hi := ind.ETA(0.90)
		pct := 100 * ind.Fraction()
		fmt.Printf("%-26s %-10.1f [%8.4f, %8.4f]     %s\n", event, pct, lo, hi, bar(pct))
	}
	report("start")

	// Complete the operators bottom-up (leaves first), observing times
	// close to — but not exactly — the per-operator predictions, the way
	// a real executor would report them.
	ops := append([]uaqetp.OpPrediction{}, pred.PerOperator...)
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		observed := op.Mean * (0.9 + 0.02*float64(op.NodeID%10))
		if err := ind.CompleteOperator(op.NodeID, observed); err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("%v done", op.Kind))
	}
	fmt.Println()
	fmt.Println("The band starts wide (the ETA is soft) and collapses to the")
	fmt.Println("elapsed time as the last operators complete.")
}

func bar(pct float64) string {
	n := int(pct / 5)
	if n > 20 {
		n = 20
	}
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", 20-n) + "]"
}
