package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vcoma/internal/runner"
)

// testServer boots a Server on its own state dir plus an httptest front end.
// The returned stop func drains it (cancel + Shutdown + close listener).
func testServer(t *testing.T, stateDir string, mutate func(*Options)) (*Server, *httptest.Server, func()) {
	t.Helper()
	opts := Options{
		StateDir: stateDir,
		Workers:  1,
		MaxQueue: 16,
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	var stopped bool
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ts.Close()
		cancel()
		s.Shutdown()
	}
	t.Cleanup(stop)
	return s, ts, stop
}

func post(t *testing.T, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func del(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// waitFor polls until pred passes or the deadline expires.
func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func jobState(t *testing.T, base, key string) string {
	code, body := get(t, base+"/v1/jobs/"+key)
	if code != http.StatusOK {
		return fmt.Sprintf("http-%d", code)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status body: %v", err)
	}
	return st.State
}

// metricValue scrapes one series from /metrics by its internal registry
// name ("serve/coalesced"), translated to the exposition name the same way
// the server renders it.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	_, body := get(t, base+"/metrics")
	pn := promName(name)
	for _, line := range strings.Split(string(body), "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, pn+" %g", &v); n == 1 {
			return v
		}
	}
	return -1
}

func submitJob(t *testing.T, base string, r Request, wantCode int) submitResponse {
	t.Helper()
	code, body, _ := post(t, base+"/v1/jobs", r)
	if code != wantCode {
		t.Fatalf("submit %+v: code %d (want %d): %s", r, code, wantCode, body)
	}
	var resp submitResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func submitKey(t *testing.T, base string, r Request, wantCode int) string {
	t.Helper()
	return submitJob(t, base, r, wantCode).Key
}

// cancelURL builds the DELETE target carrying the submit's waiter token.
func cancelURL(base string, resp submitResponse) string {
	return base + "/v1/jobs/" + resp.Key + "?waiter=" + resp.Waiter
}

// gateChaos holds any L3 job mid-flight, parking the single worker so tests
// can pile work behind it deterministically.
func gateChaos(t *testing.T) *runner.Chaos {
	t.Helper()
	chaos, err := runner.ParseChaos("hang:L3-TLB")
	if err != nil {
		t.Fatal(err)
	}
	return chaos
}

var gateReq = Request{Bench: "RADIX", Scheme: "l3", Scale: "test"}

// TestServiceCoalescingRunsOneSimulation is the ISSUE's first acceptance
// criterion: two concurrent key-equal clients trigger exactly one
// simulation, both served the same artifact bytes.
func TestServiceCoalescingRunsOneSimulation(t *testing.T) {
	_, ts, _ := testServer(t, t.TempDir(), func(o *Options) { o.Chaos = gateChaos(t) })

	// Park the worker on the gate job.
	gate := submitJob(t, ts.URL, gateReq, http.StatusAccepted)
	gateKey := gate.Key
	waitFor(t, "gate running", func() bool { return jobState(t, ts.URL, gateKey) == "running" })

	// Two clients, same cell.
	target := Request{Bench: "RADIX", Scheme: "l0", Scale: "test"}
	k1 := submitKey(t, ts.URL, target, http.StatusAccepted)
	k2 := submitKey(t, ts.URL, target, http.StatusAccepted)
	if k1 != k2 {
		t.Fatalf("key-equal requests got distinct keys %s %s", k1, k2)
	}
	if got := metricValue(t, ts.URL, "serve/coalesced"); got != 1 {
		t.Fatalf("coalesced=%v, want 1", got)
	}

	// A DELETE without the waiter token must not touch the job (the key is
	// shared across clients; the token is the cancel capability).
	if code, _ := del(t, ts.URL+"/v1/jobs/"+gateKey); code != http.StatusForbidden {
		t.Fatalf("tokenless cancel: %d, want 403", code)
	}
	// Release the gate: its only waiter cancels, freeing the worker.
	if code, body := del(t, cancelURL(ts.URL, gate)); code != http.StatusOK {
		t.Fatalf("cancel gate: %d %s", code, body)
	}
	waitFor(t, "target done", func() bool { return jobState(t, ts.URL, k1) == "done" })

	c1, b1 := get(t, ts.URL+"/v1/jobs/"+k1+"/result")
	c2, b2 := get(t, ts.URL+"/v1/jobs/"+k2+"/result")
	if c1 != http.StatusOK || c2 != http.StatusOK {
		t.Fatalf("result fetch: %d %d", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("coalesced clients got different bytes")
	}
	if got := metricValue(t, ts.URL, "serve/sims.executed"); got != 1 {
		t.Fatalf("sims.executed=%v, want exactly 1", got)
	}

	// A third key-equal request is now a store hit: 200, same bytes.
	code, body, _ := post(t, ts.URL+"/v1/jobs", target)
	if code != http.StatusOK {
		t.Fatalf("post-completion submit: %d", code)
	}
	var resp submitResponse
	json.Unmarshal(body, &resp)
	if resp.State != "done" {
		t.Fatalf("post-completion state %q", resp.State)
	}
	if got := metricValue(t, ts.URL, "serve/sims.executed"); got != 1 {
		t.Fatalf("store hit re-ran the simulation: sims.executed=%v", got)
	}
}

// TestServiceFloodRejectedWithoutStarvation is the second acceptance
// criterion: an over-budget flood is 429'd with Retry-After while already
// admitted jobs still complete.
func TestServiceFloodRejectedWithoutStarvation(t *testing.T) {
	_, ts, _ := testServer(t, t.TempDir(), func(o *Options) {
		o.Chaos = gateChaos(t)
		o.MaxQueue = 2
	})

	gate := submitJob(t, ts.URL, gateReq, http.StatusAccepted)
	gateKey := gate.Key
	waitFor(t, "gate running", func() bool { return jobState(t, ts.URL, gateKey) == "running" })

	// Fill the admitted backlog.
	admitted := []string{
		submitKey(t, ts.URL, Request{Bench: "RADIX", Scheme: "l0", Scale: "test"}, http.StatusAccepted),
		submitKey(t, ts.URL, Request{Bench: "RADIX", Scheme: "l1", Scale: "test"}, http.StatusAccepted),
	}
	// Flood: distinct keys — all must bounce with 429 + Retry-After.
	for i := uint64(1); i <= 5; i++ {
		code, body, hdr := post(t, ts.URL+"/v1/jobs", Request{Bench: "RADIX", Scheme: "l2", Scale: "test", Seed: i})
		if code != http.StatusTooManyRequests {
			t.Fatalf("flood %d: code %d: %s", i, code, body)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("flood %d: no Retry-After", i)
		}
	}
	if got := metricValue(t, ts.URL, "serve/rejected.overload"); got != 5 {
		t.Fatalf("rejected=%v, want 5", got)
	}

	// The admitted jobs are not starved: release the gate and they finish.
	del(t, cancelURL(ts.URL, gate))
	for _, k := range admitted {
		k := k
		waitFor(t, "admitted job done", func() bool { return jobState(t, ts.URL, k) == "done" })
	}
}

// TestServiceDrainRestartByteIdentical is the third acceptance criterion:
// SIGTERM mid-job → restart → resume yields a byte-identical result to an
// uninterrupted run.
func TestServiceDrainRestartByteIdentical(t *testing.T) {
	target := Request{Bench: "RADIX", Scheme: "vcoma", Scale: "test"}

	// Reference: an uninterrupted server computes the cell.
	_, refTS, refStop := testServer(t, t.TempDir(), nil)
	refKey := submitKey(t, refTS.URL, target, http.StatusAccepted)
	waitFor(t, "reference done", func() bool { return jobState(t, refTS.URL, refKey) == "done" })
	code, refBytes := get(t, refTS.URL+"/v1/jobs/"+refKey+"/result")
	if code != http.StatusOK {
		t.Fatalf("reference result: %d", code)
	}
	refStop()

	// Interrupted: chaos holds the job mid-flight; drain hits while it runs.
	stateDir := t.TempDir()
	chaos, err := runner.ParseChaos("hang:V-COMA")
	if err != nil {
		t.Fatal(err)
	}
	_, ts1, stop1 := testServer(t, stateDir, func(o *Options) { o.Chaos = chaos })
	key := submitKey(t, ts1.URL, target, http.StatusAccepted)
	if key != refKey {
		t.Fatalf("same request keyed differently across servers: %s vs %s", key, refKey)
	}
	waitFor(t, "victim running", func() bool { return jobState(t, ts1.URL, key) == "running" })
	stop1() // SIGTERM path: cancel workers, requeue in-flight, journal stays pending

	// Restart on the same state dir, chaos off: the journal re-enqueues the
	// job and it completes.
	_, ts2, _ := testServer(t, stateDir, nil)
	waitFor(t, "resumed done", func() bool { return jobState(t, ts2.URL, key) == "done" })
	code, gotBytes := get(t, ts2.URL+"/v1/jobs/"+key+"/result")
	if code != http.StatusOK {
		t.Fatalf("resumed result: %d", code)
	}
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", gotBytes, refBytes)
	}
	if got := metricValue(t, ts2.URL, "serve/resumed"); got != 1 {
		t.Fatalf("resumed=%v, want 1", got)
	}
}

// TestServiceCancelQueuedJob withdraws a job before any worker sees it. The
// withdrawal must be journaled: a restart on the same state dir must not
// resume the job.
func TestServiceCancelQueuedJob(t *testing.T) {
	stateDir := t.TempDir()
	_, ts, stop := testServer(t, stateDir, func(o *Options) { o.Chaos = gateChaos(t) })
	gate := submitJob(t, ts.URL, gateReq, http.StatusAccepted)
	gateKey := gate.Key
	waitFor(t, "gate running", func() bool { return jobState(t, ts.URL, gateKey) == "running" })

	job := submitJob(t, ts.URL, Request{Bench: "RADIX", Scheme: "l0", Scale: "test"}, http.StatusAccepted)
	key := job.Key
	if job.Waiter == "" {
		t.Fatalf("202 carried no waiter_id")
	}
	if code, body := del(t, cancelURL(ts.URL, job)); code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	if st := jobState(t, ts.URL, key); st != "canceled" {
		t.Fatalf("state after cancel: %q", st)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+key+"/result"); code != http.StatusInternalServerError {
		t.Fatalf("result of canceled job: %d, want 500", code)
	}
	// A repeated DELETE finds the job terminal and counts nothing twice.
	if code, body := del(t, cancelURL(ts.URL, job)); code != http.StatusOK {
		t.Fatalf("repeated cancel: %d %s", code, body)
	}
	if got := metricValue(t, ts.URL, "serve/canceled"); got != 1 {
		t.Fatalf("canceled=%v after withdrawing a queued job, want 1", got)
	}
	// The canceled job must never run.
	del(t, cancelURL(ts.URL, gate))
	waitFor(t, "gate canceled", func() bool { return jobState(t, ts.URL, gateKey) == "canceled" })
	time.Sleep(50 * time.Millisecond)
	if got := metricValue(t, ts.URL, "serve/sims.executed"); got != 0 {
		t.Fatalf("canceled job was simulated (%v)", got)
	}

	// Nor may a restart bring it back.
	stop()
	_, ts2, _ := testServer(t, stateDir, nil)
	if got := metricValue(t, ts2.URL, "serve/resumed"); got != 0 {
		t.Fatalf("restart resumed %v jobs, want 0", got)
	}
	time.Sleep(50 * time.Millisecond)
	if got := metricValue(t, ts2.URL, "serve/sims.executed"); got != 0 {
		t.Fatalf("restart simulated %v jobs, want 0", got)
	}
}

func TestServiceValidationAndIntrospection(t *testing.T) {
	dir := t.TempDir()
	_, ts, stop := testServer(t, dir, nil)
	if code, _, _ := post(t, ts.URL+"/v1/jobs", Request{Bench: "NOPE", Scheme: "l0", Scale: "test"}); code != http.StatusBadRequest {
		t.Fatalf("unknown bench: %d", code)
	}
	if code, _, _ := post(t, ts.URL+"/v1/jobs", Request{Bench: "RADIX", Scheme: "warp", Scale: "test"}); code != http.StatusBadRequest {
		t.Fatalf("unknown scheme: %d", code)
	}
	if code, _, _ := post(t, ts.URL+"/v1/jobs", Request{Bench: "RADIX", Scheme: "l0", Scale: "test", TLB: 3, Org: "dm"}); code != http.StatusBadRequest {
		t.Fatalf("config.Validate must reject a non-power-of-two DM TLB: %d", code)
	}
	if code, _, _ := post(t, ts.URL+"/v1/jobs", Request{Bench: "RADIX", Scheme: "l0", Scale: "test", TLB: 1 << 40, Org: "dm"}); code != http.StatusBadRequest {
		t.Fatalf("config.Validate must reject an oversized TLB: %d", code)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/queue"); code != http.StatusOK {
		t.Fatalf("queue introspection: %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/ffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
	// A {key} that is not exact sha256-hex must 404 before it reaches the
	// store's file layout — ServeMux decodes %2F inside the wildcard, so a
	// traversal key would otherwise escape the artifact directory (and the
	// cache quarantines what it reads but can't validate).
	for _, k := range []string{
		"..%2F..%2Fserve-journal",
		strings.Repeat("A", 64), // right length, wrong alphabet
		strings.Repeat("f", 63), // right alphabet, wrong length
	} {
		if code, _ := get(t, ts.URL+"/v1/jobs/"+k); code != http.StatusNotFound {
			t.Fatalf("malformed key %q: %d, want 404", k, code)
		}
		if code, _ := get(t, ts.URL+"/v1/jobs/"+k+"/result"); code != http.StatusNotFound {
			t.Fatalf("malformed key %q result: %d, want 404", k, code)
		}
		if code, _ := del(t, ts.URL+"/v1/jobs/"+k); code != http.StatusNotFound {
			t.Fatalf("malformed key %q cancel: %d, want 404", k, code)
		}
	}
	if code, _ := get(t, ts.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof: %d", code)
	}
	// Rejected requests never reach the accept journal.
	stop()
	j, pending, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(pending) != 0 {
		t.Fatalf("rejected requests were journaled: %+v", pending)
	}
}
