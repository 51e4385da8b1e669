package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsPrometheusExposition validates GET /metrics against the text
// exposition format: every sample under the vcoma_ namespace with a TYPE
// declaration, histograms rendered as cumulative _bucket{le="..."} series
// closed by +Inf and accompanied by _sum/_count, and no internal registry
// names leaking through.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts, _ := testServer(t, t.TempDir(), nil)

	// One real run so the latency histograms hold observations.
	key := submitKey(t, ts.URL, Request{Bench: "RADIX", Scheme: "l0", Scale: "test"}, http.StatusAccepted)
	waitFor(t, "job done", func() bool { return jobState(t, ts.URL, key) == "done" })

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want text exposition v0.0.4", ct)
	}

	types := map[string]string{}   // series name -> declared TYPE
	help := map[string]bool{}      // series with a HELP line
	values := map[string]float64{} // full sample name (incl. labels) -> value
	var order []string             // sample names in exposition order
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("HELP line without text: %q", line)
			}
			help[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("TYPE line declares unknown type: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		name, val := line[:i], line[i+1:]
		if !strings.HasPrefix(name, "vcoma_") {
			t.Fatalf("sample outside the vcoma_ namespace: %q", line)
		}
		if strings.Contains(name, "/") {
			t.Fatalf("internal registry name leaked: %q", line)
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		v, _ := strconv.ParseFloat(val, 64)
		values[name] = v
		order = append(order, name)
	}

	// Every sample's base series must carry a TYPE declaration. A histogram
	// declaration covers its _bucket/_sum/_count children.
	base := func(name string) string {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if s := strings.TrimSuffix(name, suf); s != name && types[s] == "histogram" {
				return s
			}
		}
		return name
	}
	for _, name := range order {
		if _, ok := types[base(name)]; !ok {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
	}

	// Spot-check the counters the run must have moved.
	if types["vcoma_serve_sims_executed"] != "counter" {
		t.Errorf("vcoma_serve_sims_executed declared %q, want counter", types["vcoma_serve_sims_executed"])
	}
	if got := values["vcoma_serve_sims_executed"]; got != 1 {
		t.Errorf("vcoma_serve_sims_executed = %g, want 1", got)
	}

	// Histogram contract: cumulative buckets closed by +Inf == _count, with
	// _sum present and both latency histograms populated by the run.
	for _, h := range []string{"vcoma_serve_lat_queue_wait_ms", "vcoma_serve_lat_run_ms"} {
		if types[h] != "histogram" {
			t.Fatalf("%s declared %q, want histogram", h, types[h])
		}
		if !help[h] {
			t.Errorf("%s has no HELP line", h)
		}
		var last float64
		var buckets int
		var inf bool
		for _, name := range order {
			if !strings.HasPrefix(name, h+"_bucket{le=\"") {
				continue
			}
			buckets++
			v := values[name]
			if v < last {
				t.Errorf("%s buckets not cumulative: %q drops %g -> %g", h, name, last, v)
			}
			last = v
			if name == h+`_bucket{le="+Inf"}` {
				inf = true
			}
		}
		if buckets == 0 {
			t.Fatalf("%s exposes no buckets", h)
		}
		if !inf {
			t.Fatalf("%s lacks the +Inf bucket", h)
		}
		count, ok := values[h+"_count"]
		if !ok {
			t.Fatalf("%s lacks _count", h)
		}
		if _, ok := values[h+"_sum"]; !ok {
			t.Fatalf("%s lacks _sum", h)
		}
		if infv := values[h+`_bucket{le="+Inf"}`]; infv != count {
			t.Errorf("%s +Inf bucket %g != _count %g", h, infv, count)
		}
		if count < 1 {
			t.Errorf("%s _count = %g after a fresh run, want >= 1", h, count)
		}
	}
}
