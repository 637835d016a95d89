package serve

import (
	"fmt"

	uaqetp "repro"
)

// QueuePolicy orders admitted work in the drain queue: requests with
// smaller keys execute first, ties break by admission order. The key is
// computed once at admission (the virtual clock at that instant is
// folded into the absolute deadline), so a policy is a pure function of
// the request's deadline, its predicted running-time distribution, and
// the tenant's SLO — exactly the inputs the paper's distribution-aware
// scheduling policies (Section 6.5) consume.
//
// The zero value selects RiskSlack, the historical default.
type QueuePolicy struct {
	// Name identifies the policy in configs and reports.
	Name string
	// Key returns the drain-order key for an admitted request with the
	// given absolute virtual deadline, prediction, and tenant SLO.
	Key func(absDeadline float64, pred *uaqetp.Prediction, slo SLO) float64
}

// The built-in queue policies.
var (
	// RiskSlack drains by risk-adjusted slack: deadline minus the SLO
	// quantile of the predicted running time — the default.
	RiskSlack = QueuePolicy{
		Name: "risk-slack",
		Key: func(absDeadline float64, pred *uaqetp.Prediction, slo SLO) float64 {
			return absDeadline - pred.Dist.Quantile(slo.Quantile)
		},
	}
	// EDF drains by earliest absolute deadline, ignoring the prediction.
	EDF = QueuePolicy{
		Name: "edf",
		Key: func(absDeadline float64, pred *uaqetp.Prediction, slo SLO) float64 {
			return absDeadline
		},
	}
	// SJF drains shortest predicted job first (by the predicted mean).
	SJF = QueuePolicy{
		Name: "sjf",
		Key: func(absDeadline float64, pred *uaqetp.Prediction, slo SLO) float64 {
			return pred.Mean()
		},
	}
	// FIFO drains in admission order (every key equal; the id tie-break
	// does the ordering).
	FIFO = QueuePolicy{
		Name: "fifo",
		Key: func(absDeadline float64, pred *uaqetp.Prediction, slo SLO) float64 {
			return 0
		},
	}
)

// QueuePolicyByName resolves a policy by its Name; "" selects the
// default (risk-slack).
func QueuePolicyByName(name string) (QueuePolicy, error) {
	switch name {
	case "", RiskSlack.Name:
		return RiskSlack, nil
	case EDF.Name:
		return EDF, nil
	case SJF.Name:
		return SJF, nil
	case FIFO.Name:
		return FIFO, nil
	default:
		return QueuePolicy{}, fmt.Errorf("serve: unknown queue policy %q (want risk-slack, edf, sjf, or fifo)", name)
	}
}
