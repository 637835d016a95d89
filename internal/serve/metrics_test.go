package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	uaqetp "repro"
)

func scrape(t *testing.T, ts *httptest.Server) (string, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String(), resp.Header.Get("Content-Type")
}

func TestMetricsEndpoint(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, ctype := scrape(t, ts)
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ctype)
	}
	// Consecutive scrapes of an idle server are byte-identical — the
	// exposition order is fixed, not map-ordered.
	again, _ := scrape(t, ts)
	if body != again {
		t.Error("idle scrapes differ; exposition order is nondeterministic")
	}

	// The text format contract: HELP/TYPE headers precede samples, and
	// the core vocabulary is present even on an idle server.
	for _, want := range []string{
		"# HELP uaqp_queue_len ",
		"# TYPE uaqp_queue_len gauge\n",
		"uaqp_queue_len 0\n",
		"# TYPE uaqp_cache_hits_total counter\n",
		`uaqp_cache_hits_total{section="estimate"} `,
		`uaqp_cache_entries{section="subtree"} `,
		"# TYPE uaqp_tenant_admitted_total counter\n",
		`uaqp_tenant_admitted_total{tenant="alpha"} 0`,
		`uaqp_tenant_rejected_total{tenant="beta"} 0`,
		"uaqp_queue_wait_mean_seconds ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(body, "uaqp_cache_tier_") {
		t.Error("cache-tier gauges exported by a server whose cache keeps no tier tally")
	}

	// Counters move with traffic: one admitted request shows up under
	// its tenant, and the queue gauge reflects the backlog.
	resp, out := postJSON(t, ts, "/submit", Request{Tenant: "alpha", Query: qs[0], Deadline: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, out)
	}
	body, _ = scrape(t, ts)
	for _, want := range []string{
		`uaqp_tenant_predictions_total{tenant="alpha"} 1`,
		`uaqp_tenant_admitted_total{tenant="alpha"} 1`,
		"uaqp_queue_len 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-submit metrics missing %q", want)
		}
	}

	// Writes are method-gated: POST to a scrape endpoint is rejected.
	post, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d, want 405", post.StatusCode)
	}
}

// TestMetricsCacheTier pins the optional gauges: a server over a cache
// that keeps a tier tally exports the tally's counters and its
// configuration.
func TestMetricsCacheTier(t *testing.T) {
	cache := uaqetp.NewTieredCache(uaqetp.TierConfig{LocalFraction: 0, RemoteLatency: 0.002, Seed: 3})
	srv, qs := newTestServer(t, Config{Cache: cache})
	if _, err := srv.Predict(context.Background(), "alpha", qs[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := srv.writeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	tier, ok := cache.TierStats()
	if !ok || tier.RemoteLookups == 0 {
		t.Fatalf("tier stats %+v, ok=%v after a prediction", tier, ok)
	}
	for _, want := range []string{
		`uaqp_cache_tier_lookups_total{tier="local"} 0` + "\n",
		fmt.Sprintf(`uaqp_cache_tier_lookups_total{tier="remote"} %d`+"\n", tier.RemoteLookups),
		"uaqp_cache_tier_local_fraction 0\n",
		"uaqp_cache_tier_remote_latency_seconds 0.002\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// labelCases are label values a scrape must carry: the text exposition
// format's three escapes (backslash, double quote, line feed), a tab and
// non-ASCII letters, which it writes as they are, and invalid UTF-8.
var labelCases = []struct{ in, want string }{
	{"a\tb", "\"a\tb\""},
	{`say "hi"`, `"say \"hi\""`},
	{`C:\dir`, `"C:\\dir"`},
	{"two\nlines", `"two\nlines"`},
	{"café ü 東京", `"café ü 東京"`},
	{"bad\xffbyte", "\"bad\uFFFDbyte\""},
	{"", `""`},
}

func TestLabelValueEscapes(t *testing.T) {
	for _, c := range labelCases {
		if got := LabelValue(c.in); got != c.want {
			t.Errorf("LabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestMetricsTenantLabelsEscaped registers a tenant whose name holds
// every case above: its samples must carry the name escaped per the
// format, and every sample line of the scrape must still parse.
func TestMetricsTenantLabelsEscaped(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	alpha, err := srv.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	var name, want strings.Builder
	for _, c := range labelCases {
		name.WriteString(c.in)
		want.WriteString(c.want[1 : len(c.want)-1])
	}
	if _, err := srv.AddTenantSystem(name.String(), alpha.sys, SLO{Confidence: 0.9, DefaultDeadline: 1, Quantile: 0.9}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := scrape(t, ts)
	if line := `uaqp_tenant_admitted_total{tenant="` + want.String() + `"} 0`; !strings.Contains(body, line) {
		t.Errorf("scrape lacks %q", line)
	}
	checkExposition(t, body)
}

// checkExposition parses every sample line of a scrape as the text
// exposition format writes one: a name, optionally {label="value",...}
// with no escape but \\, \" and \n inside a value, a space, a number.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if err := parseSample(line); err != nil {
			t.Errorf("sample line %q: %v", line, err)
		}
	}
}

func parseSample(line string) error {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return fmt.Errorf("no metric name")
	}
	rest := line[i:]
	for rest[0] == '{' || rest[0] == ',' {
		eq := strings.Index(rest, `="`)
		if eq <= 1 {
			return fmt.Errorf("no label at %q", rest)
		}
		rest = rest[eq+2:]
		j := 0
		for ; j < len(rest) && rest[j] != '"'; j++ {
			if rest[j] == '\\' {
				if j+1 == len(rest) || !strings.ContainsRune(`\"n`, rune(rest[j+1])) {
					return fmt.Errorf("escape the format does not have at %q", rest[j:])
				}
				j++
			}
		}
		if j == len(rest) {
			return fmt.Errorf("unterminated label value")
		}
		if rest = rest[j+1:]; rest == "" {
			return fmt.Errorf("no value")
		}
		if rest[0] == '}' {
			rest = rest[1:]
			break
		}
		if rest[0] != ',' {
			return fmt.Errorf("%q after a label value", rest[0])
		}
	}
	v, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return fmt.Errorf("no space before the value")
	}
	_, err := strconv.ParseFloat(v, 64)
	return err
}
