package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// writeMetrics renders a point-in-time snapshot of the server in the
// Prometheus text exposition format (version 0.0.4), hand-written so
// the serving layer stays dependency-free. The vocabulary mirrors the
// simulator's Report: the same counters (admissions, rejections,
// deadline outcomes, recalibrations, queue depth, cache hit rates)
// under one metric namespace, so a real deployment and a simulated
// scenario are compared with the same queries.
//
// Output ordering is fixed (metrics in declaration order, tenants and
// cache sections sorted by label), so consecutive scrapes of an idle
// server are byte-identical.
func (s *Server) writeMetrics(w io.Writer) error {
	st := s.Stats()
	mw := &metricsWriter{w: w}

	mw.gaugeInt("uaqp_queue_len", "Admitted requests awaiting execution.", st.QueueLen)
	mw.gauge("uaqp_clock_virtual_seconds", "Current virtual clock.", st.Clock)
	mw.gauge("uaqp_queue_wait_mean_seconds", "Predicted mean queue wait T_wait (backlog plus in-flight residual).", st.QueueWaitMean)
	mw.gauge("uaqp_queue_wait_var", "Predicted variance of the queue wait.", st.QueueWaitVar)
	mw.head("uaqp_recovered_panics_total", "Handler panics recovered (answered 500 unless the response had started).", "counter")
	mw.printf("uaqp_recovered_panics_total %d\n", s.panics.Load())

	// The shared estimate cache, one section per label: the sampling-pass
	// ("estimate"), join-subtree ("subtree"), and run-result ("run")
	// sections of uaqetp.CacheStats.
	type section struct {
		name                  string
		hits, misses, evicted uint64
		entries               int
	}
	sections := []section{
		{"estimate", st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Entries},
		{"run", st.Cache.RunHits, st.Cache.RunMisses, st.Cache.RunEvictions, st.Cache.RunEntries},
		{"subtree", st.Cache.SubtreeHits, st.Cache.SubtreeMisses, st.Cache.SubtreeEvictions, st.Cache.SubtreeEntries},
	}
	mw.head("uaqp_cache_hits_total", "Shared estimate-cache hits by section.", "counter")
	for _, c := range sections {
		mw.labeled("uaqp_cache_hits_total", "section", c.name, float64(c.hits))
	}
	mw.head("uaqp_cache_misses_total", "Shared estimate-cache misses by section.", "counter")
	for _, c := range sections {
		mw.labeled("uaqp_cache_misses_total", "section", c.name, float64(c.misses))
	}
	mw.head("uaqp_cache_evictions_total", "Shared estimate-cache evictions by section.", "counter")
	for _, c := range sections {
		mw.labeled("uaqp_cache_evictions_total", "section", c.name, float64(c.evicted))
	}
	mw.head("uaqp_cache_entries", "Shared estimate-cache resident entries by section.", "gauge")
	for _, c := range sections {
		mw.labeled("uaqp_cache_entries", "section", c.name, float64(c.entries))
	}

	// Cache-tier gauges, present only when the server's cache keeps a
	// tier tally (uaqetp.NewTieredCache).
	if ts, ok := s.cache.TierStats(); ok {
		mw.head("uaqp_cache_tier_lookups_total", "Estimate-cache lookups by tier.", "counter")
		mw.labeled("uaqp_cache_tier_lookups_total", "tier", "local", float64(ts.LocalLookups))
		mw.labeled("uaqp_cache_tier_lookups_total", "tier", "remote", float64(ts.RemoteLookups))
		mw.gauge("uaqp_cache_tier_local_fraction", "Configured fraction of keys resident in the local tier.", ts.LocalFraction)
		mw.gauge("uaqp_cache_tier_remote_latency_seconds", "Modeled latency per remote-tier lookup.", ts.RemoteLatencySeconds)
		mw.gauge("uaqp_cache_tier_modeled_remote_seconds", "Total modeled time spent on remote-tier lookups.", ts.ModeledRemoteSeconds)
	}

	// Per-tenant counters (st.Tenants is sorted by name).
	perTenant := []struct {
		metric, help string
		value        func(TenantStats) float64
	}{
		{"uaqp_tenant_predictions_total", "Predictions served.", func(t TenantStats) float64 { return float64(t.Predictions) }},
		{"uaqp_tenant_admitted_total", "Requests admitted by the SLO rule.", func(t TenantStats) float64 { return float64(t.Admitted) }},
		{"uaqp_tenant_rejected_total", "Requests rejected (admission rule or full queue).", func(t TenantStats) float64 { return float64(t.Rejected) }},
		{"uaqp_tenant_executed_total", "Admitted requests executed.", func(t TenantStats) float64 { return float64(t.Executed) }},
		{"uaqp_tenant_exec_failed_total", "Admitted requests whose execution errored.", func(t TenantStats) float64 { return float64(t.ExecFailed) }},
		{"uaqp_tenant_deadlines_met_total", "Executed requests finishing within their deadline.", func(t TenantStats) float64 { return float64(t.DeadlinesMet) }},
		{"uaqp_tenant_deadlines_missed_total", "Executed requests missing their deadline.", func(t TenantStats) float64 { return float64(t.DeadlinesMissed) }},
		{"uaqp_tenant_recalibrations_total", "Predictor recalibrations (manual and automatic).", func(t TenantStats) float64 { return float64(t.Recalibrations) }},
		{"uaqp_tenant_auto_recalibrations_total", "Recalibrations triggered by the RecalEvery cadence.", func(t TenantStats) float64 { return float64(t.AutoRecalibrations) }},
	}
	for _, m := range perTenant {
		mw.head(m.metric, m.help, "counter")
		for _, t := range st.Tenants {
			mw.labeled(m.metric, "tenant", t.Name, m.value(t))
		}
	}

	// Calibration observatory: per-(tenant, cost-unit) drift metrics from
	// the feedback accumulators (only units with observations appear).
	// Tenants are sorted by name and units by declaration order inside
	// each drift report, so scrapes stay byte-stable.
	perUnit := []struct {
		metric, help string
		value        func(UnitDrift) float64
	}{
		{"uaqp_calibration_observations", "Observed (prediction, running time) pairs per tenant and dominant cost unit.", func(u UnitDrift) float64 { return float64(u.N) }},
		{"uaqp_calibration_mape", "Mean absolute percentage error of predicted vs. observed running time.", func(u UnitDrift) float64 { return u.MAPE }},
		{"uaqp_calibration_bias_seconds", "Mean signed error predicted-observed in seconds.", func(u UnitDrift) float64 { return u.Bias }},
		{"uaqp_calibration_pearson_r", "Correlation between predicted means and observed running times.", func(u UnitDrift) float64 { return u.PearsonR }},
		{"uaqp_calibration_mean_z", "Mean standardized residual (observed-mean)/sigma.", func(u UnitDrift) float64 { return u.MeanZ }},
	}
	for _, m := range perUnit {
		mw.head(m.metric, m.help, "gauge")
		for _, t := range st.Tenants {
			for _, u := range t.Drift.PerUnit {
				mw.labeled2(m.metric, "tenant", t.Name, "unit", u.Unit, m.value(u))
			}
		}
	}
	mw.head("uaqp_calibration_coverage_drift", "Observed minus nominal central-interval coverage per nominal level.", "gauge")
	for _, t := range st.Tenants {
		for _, u := range t.Drift.PerUnit {
			for _, cp := range u.Coverage {
				mw.printf("uaqp_calibration_coverage_drift{tenant=%s,unit=%s,level=\"%s\"} %s\n",
					LabelValue(t.Name), LabelValue(u.Unit), formatValue(cp.Nominal), formatValue(cp.Drift))
			}
		}
	}
	return mw.err
}

// metricsWriter accumulates the first write error so the metric body
// reads linearly.
type metricsWriter struct {
	w   io.Writer
	err error
}

func (m *metricsWriter) printf(format string, args ...any) {
	if m.err == nil {
		_, m.err = fmt.Fprintf(m.w, format, args...)
	}
}

func (m *metricsWriter) head(name, help, typ string) {
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	m.head(name, help, "gauge")
	m.printf("%s %s\n", name, formatValue(v))
}

func (m *metricsWriter) gaugeInt(name, help string, v int) {
	m.head(name, help, "gauge")
	m.printf("%s %d\n", name, v)
}

func (m *metricsWriter) labeled(name, label, lv string, v float64) {
	m.printf("%s{%s=%s} %s\n", name, label, LabelValue(lv), formatValue(v))
}

func (m *metricsWriter) labeled2(name, l1, v1, l2, v2 string, v float64) {
	m.printf("%s{%s=%s,%s=%s} %s\n", name, l1, LabelValue(v1), l2, LabelValue(v2), formatValue(v))
}

// labelEscaper applies the text exposition format's only three escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// LabelValue renders v as a quoted Prometheus label value: backslash,
// double quote and line feed escaped as \\, \" and \n, every other
// character as is (a tab or non-ASCII letter included), and invalid
// UTF-8 replaced by U+FFFD. Go's %q would write escapes such as \t or
// \x00 that the format does not have, and one such label makes the
// whole scrape unparseable.
func LabelValue(v string) string {
	return `"` + labelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD")) + `"`
}

// formatValue renders floats the way Prometheus clients do: shortest
// round-trip representation.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.writeMetrics(w); err != nil {
		// Headers are gone; nothing to do but log-level silence — the
		// scrape will be truncated and the scraper retries.
		return
	}
}
