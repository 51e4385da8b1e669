package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vcoma/internal/fsio"
	"vcoma/internal/obs"
	"vcoma/internal/report"
	"vcoma/internal/serve"
	"vcoma/internal/workload"
)

// planRate is the rate, in requests per second, at which serve-mixed's
// request sequence is generated. The closed loop sends the sequence in order
// as fast as the server answers and uses its times only to place joins and
// repeats, so the rate is set well above what the loop reaches and the
// sequence outlasts the timed phase.
const planRate = 200

const (
	serveBoots   = 16                   // restarts measured for set-up after the timed phase
	pollInterval = 2 * time.Millisecond // wait between GET /result polls
	reqTimeout   = 60 * time.Second     // a request not answered by then has failed
	repeatAfter  = time.Second          // a repeat re-submits a key sent at least this long ago
)

// Request kinds of the mix.
const (
	kindFresh  = "fresh"  // a new cell: admitted, journaled, queued, simulated, stored
	kindJoin   = "join"   // a key sent 1-5 ms earlier: coalesces onto the running job
	kindRepeat = "repeat" // a key sent at least repeatAfter earlier: a store hit
)

type plannedReq struct {
	due  time.Duration // offset from the start of the timed phase
	kind string
	req  serve.Request
}

// serveSchedule generates a request schedule from the seed: Poisson
// arrivals of fresh requests (7 in 9) and repeats (2 in 9), and
// after every seventh fresh request a join 1-5 ms later. The mix is
// therefore about 70% fresh, 20% repeats and 10% joins. Fresh requests deal
// the benchmark x scheme cells from a deck the seed shuffles, reshuffled once
// dealt out, so every run simulates the cells in the same proportions; each
// takes a seed no other fresh request uses, so every fresh request is a
// distinct simulation.
func serveSchedule(seed int64, rate, secs float64, scale workload.Scale) []plannedReq {
	rng := rand.New(rand.NewSource(seed))
	benches := workload.Names()
	schemes := []string{"l0", "l1", "l2", "l3", "vcoma"}
	used := map[uint64]bool{}
	var deck []int
	var plan, fresh []plannedReq
	base := rate * 0.9 // joins are the other tenth
	for t := rng.ExpFloat64() / base; t < secs; t += rng.ExpFloat64() / base {
		due := time.Duration(t * float64(time.Second))
		n := sort.Search(len(fresh), func(i int) bool { return fresh[i].due > due-repeatAfter })
		if rng.Intn(9) < 2 && n > 0 {
			p := fresh[rng.Intn(n)]
			plan = append(plan, plannedReq{due: due, kind: kindRepeat, req: p.req})
			continue
		}
		s := uint64(rng.Int63n(1<<40)) + 1
		for used[s] {
			s++
		}
		used[s] = true
		if len(deck) == 0 {
			deck = rng.Perm(len(benches) * len(schemes))
		}
		cell := deck[0]
		deck = deck[1:]
		p := plannedReq{due: due, kind: kindFresh, req: serve.Request{
			Bench:  benches[cell/len(schemes)],
			Scheme: schemes[cell%len(schemes)],
			Scale:  scale.String(),
			Seed:   s,
		}}
		plan = append(plan, p)
		fresh = append(fresh, p)
		if len(fresh)%7 == 0 {
			j := p
			j.kind = kindJoin
			j.due += time.Millisecond + time.Duration(rng.Int63n(int64(4*time.Millisecond)))
			plan = append(plan, j)
		}
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].due < plan[j].due })
	return plan
}

// liveServer is an in-process vcoma-serve on a loopback listener: serve.New
// plus its Handler, which is what the vcoma-serve binary runs.
type liveServer struct {
	base   string
	srv    *serve.Server
	http   *http.Server
	cancel context.CancelFunc
	served chan struct{}
}

// bootServer starts a server on a fresh state directory and returns once
// /healthz answers.
func bootServer(dir string, fs *fsio.FS, client *http.Client) (*liveServer, error) {
	s, err := serve.New(serve.Options{StateDir: dir, Workers: runtime.NumCPU(), MaxQueue: 1 << 12, FS: fs})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		s.Shutdown()
		return nil, err
	}
	l := &liveServer{base: "http://" + ln.Addr().String(), srv: s, http: &http.Server{Handler: s.Handler()}, cancel: cancel, served: make(chan struct{})}
	go func() {
		defer close(l.served)
		_ = l.http.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	for deadline := time.Now().Add(reqTimeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := client.Get(l.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
	}
	l.stop()
	return nil, errors.New("server booted but /healthz never answered")
}

// stop shuts the HTTP listener, then the workers, and waits for both.
func (l *liveServer) stop() {
	_ = l.http.Shutdown(context.Background())
	<-l.served
	l.cancel()
	l.srv.Shutdown()
}

// reqResult is one request as the client saw it.
type reqResult struct {
	kind    string
	waited  bool // the submit was answered 202: the result waited on a simulation
	err     error
	key     string
	body    []byte
	latency time.Duration // from the scheduled send to the result bytes read
	accept  time.Duration // the POST round trip
	fetch   time.Duration // the GET /result that returned the bytes
	polls   int
	// Traced runs only, fresh requests only: the server's own record.
	queueWait, run time.Duration
	selfMS         map[string]float64
	traceFetch     time.Duration
}

type client struct {
	http  *http.Client
	base  string
	trace *obs.Trace
}

func (c *client) getBody(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do submits one planned request and polls its result.
func (c *client) do(p plannedReq, due time.Time) (r reqResult) {
	r.kind = p.kind
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	sp := c.trace.StartSpan("request")
	sp.SetAttr("kind", p.kind)
	defer sp.End()

	body, err := json.Marshal(p.req)
	if err != nil {
		r.err = err
		return r
	}
	asp := sp.StartChild("accept")
	t := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	var sub struct {
		Key    string `json:"key"`
		Result string `json:"result_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	r.accept = time.Since(t)
	asp.End()
	switch {
	case err != nil:
		r.err = fmt.Errorf("decoding submit response: %w", err)
		return r
	case resp.StatusCode == http.StatusAccepted:
		r.waited = true
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("submit answered %d", resp.StatusCode)
		return r
	}
	r.key = sub.Key

	fsp := sp.StartChild("fetch")
	for {
		t := time.Now()
		status, b, err := c.getBody(ctx, c.base+sub.Result)
		r.polls++
		if err != nil {
			r.err = err
			return r
		}
		if status == http.StatusOK {
			r.fetch = time.Since(t)
			r.latency = time.Since(due)
			r.body = b
			break
		}
		if status != http.StatusAccepted {
			r.err = fmt.Errorf("result answered %d: %s", status, b)
			return r
		}
		time.Sleep(pollInterval)
	}
	fsp.End()

	if c.trace != nil && p.kind == kindFresh && r.waited {
		t := time.Now()
		c.serverRecord(ctx, &r)
		r.traceFetch = time.Since(t)
	}
	return r
}

// waitIdle polls GET /v1/queue until no job is queued or running.
func (c *client) waitIdle() error {
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	for {
		status, b, err := c.getBody(ctx, c.base+"/v1/queue")
		if err != nil {
			return fmt.Errorf("waiting for the server to go idle: %w", err)
		}
		var q struct {
			Queue struct{ Queued, Running int } `json:"queue"`
		}
		if status != http.StatusOK || json.Unmarshal(b, &q) != nil {
			return fmt.Errorf("GET /v1/queue answered %d: %s", status, b)
		}
		if q.Queue.Queued == 0 && q.Queue.Running == 0 {
			return nil
		}
		time.Sleep(pollInterval)
	}
}

// serverRecord reads a finished fresh job's status timestamps and the span
// tree the server recorded for it.
func (c *client) serverRecord(ctx context.Context, r *reqResult) {
	status, b, err := c.getBody(ctx, c.base+"/v1/jobs/"+r.key)
	var st struct {
		QueuedAt  time.Time  `json:"queued_at"`
		StartedAt *time.Time `json:"started_at"`
		DoneAt    *time.Time `json:"done_at"`
	}
	if err == nil && status == http.StatusOK && json.Unmarshal(b, &st) == nil && st.StartedAt != nil && st.DoneAt != nil {
		r.queueWait = st.StartedAt.Sub(st.QueuedAt)
		r.run = st.DoneAt.Sub(*st.StartedAt)
	}
	status, b, err = c.getBody(ctx, c.base+"/v1/jobs/"+r.key+"/trace")
	var tree obs.SpanTree
	if err == nil && status == http.StatusOK && json.Unmarshal(b, &tree) == nil {
		r.selfMS = map[string]float64{}
		var walk func(n obs.SpanNode)
		walk = func(n obs.SpanNode) {
			self := int64(n.DurUS)
			for _, ch := range n.Children {
				self -= int64(ch.DurUS)
				walk(ch)
			}
			r.selfMS[n.Name] += float64(max(self, 0)) / 1000
		}
		for _, n := range tree.Spans {
			walk(n)
		}
	}
}

// serveRun is everything one run of serve traffic measured.
type serveRun struct {
	setups  []float64
	plan    []plannedReq // the requests sent, in the order results holds them
	results []reqResult
	wall    time.Duration // first send to last result read
	metrics map[string]float64
	fsOps   uint64
	fsyncs  int
}

// openLoop sends the schedule at rate req/s open-loop: each request at its
// scheduled time, whether or not earlier ones have their results. The
// capacity sweep uses it to find the rate at which a backlog starts to grow.
func openLoop(cfg runConfig, rate float64, boots int) (*serveRun, error) {
	plan := serveSchedule(cfg.seed, rate, cfg.seconds, cfg.scale)
	return serveTraffic(cfg, boots, func(c *client, sr *serveRun) {
		sr.plan = plan
		sr.results = make([]reqResult, len(plan))
		var wg sync.WaitGroup
		start := time.Now()
		for i, p := range plan {
			due := start.Add(p.due)
			time.Sleep(time.Until(due))
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				sr.results[i] = c.do(plan[i], due)
			}(i, due)
		}
		wg.Wait()
	})
}

// closedLoop is serve-mixed's traffic: one client sends the schedule's
// requests in order, each once the previous one has its result, until the
// timed phase is spent. A join goes out alongside the fresh request whose
// key it repeats, its scheduled 1-5 ms later, so that it coalesces onto that
// job while it is queued or running.
//
// The loop keeps the host busy on purpose. On the shared reference host a
// fixed test-scale cell simulates in a steady 5.0 ms (±3%) under sustained
// load, but in 3.0 or 5.5 ms, unpredictably, when it runs in short bursts
// between idle gaps, which is what open-loop traffic at a fraction of
// capacity produces; its median latency followed those swings.
func closedLoop(cfg runConfig, boots int) (*serveRun, error) {
	plan := serveSchedule(cfg.seed, planRate, cfg.seconds, cfg.scale)
	joinOf := map[int]int{} // index of a fresh request -> index of its join
	freshAt := map[uint64]int{}
	for i, p := range plan {
		switch p.kind {
		case kindFresh:
			freshAt[p.req.Seed] = i
		case kindJoin:
			joinOf[freshAt[p.req.Seed]] = i
		}
	}
	return serveTraffic(cfg, boots, func(c *client, sr *serveRun) {
		deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		for i, p := range plan {
			if !time.Now().Before(deadline) {
				return
			}
			if p.kind == kindJoin {
				continue // sent with its fresh request
			}
			sent := time.Now()
			j, ok := joinOf[i]
			if !ok {
				sr.plan = append(sr.plan, p)
				sr.results = append(sr.results, c.do(p, sent))
				continue
			}
			var jr reqResult
			done := make(chan struct{})
			go func() {
				defer close(done)
				due := sent.Add(plan[j].due - p.due)
				time.Sleep(time.Until(due))
				jr = c.do(plan[j], due)
			}()
			r := c.do(p, sent)
			<-done
			sr.plan = append(sr.plan, p, plan[j])
			sr.results = append(sr.results, r, jr)
		}
	})
}

// serveTraffic boots a server, lets send drive it through a client with at
// most nproc HTTP connections, waits until no job is queued or running,
// reads the server's /metrics and shuts it down, then restarts it boots
// times on its state.
func serveTraffic(cfg runConfig, boots int, send func(*client, *serveRun)) (*serveRun, error) {
	n := runtime.NumCPU()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	defer hc.CloseIdleConnections()
	fs := fsio.New(nil)
	var rec *fsio.Recorder
	if cfg.trace != nil {
		rec = fsio.NewRecorder(cfg.work, false)
		fs.SetRecorder(rec)
	}
	sr := &serveRun{}

	state := filepath.Join(cfg.work, "state")
	live, err := bootServer(state, fs, hc)
	if err != nil {
		return nil, err
	}
	defer func() {
		if live != nil {
			live.stop()
		}
	}()
	ops0, fsyncs0 := fs.Counters().Ops, fsyncCount(rec)

	c := &client{http: hc, base: live.base, trace: cfg.trace}
	start := time.Now()
	send(c, sr)
	sr.wall = time.Since(start)

	// A result can be fetched once its artifact is stored, a moment before
	// the worker counts the simulation and finishes the job, so the counters
	// are read only once no job is queued or running.
	if err := c.waitIdle(); err != nil {
		return nil, err
	}
	sr.fsOps, sr.fsyncs = fs.Counters().Ops-ops0, fsyncCount(rec)-fsyncs0
	status, b, err := c.getBody(context.Background(), live.base+"/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("reading /metrics: status %d: %v", status, err)
	}
	sr.metrics = parseExposition(b)

	// Set-up: restarts on the state the timed phase left behind, an
	// artifact store and an accept journal of about a thousand requests,
	// which is what restarting a serving instance costs.
	live.stop()
	live = nil
	for i := 0; i < boots; i++ {
		sp := cfg.trace.StartSpan("boot")
		t := time.Now()
		l, err := bootServer(state, fs, hc)
		if err != nil {
			return nil, err
		}
		sr.setups = append(sr.setups, seconds(time.Since(t)))
		sp.End()
		l.stop()
	}
	return sr, nil
}

// parseExposition reads the plain "name value" series of a Prometheus text
// exposition.
func parseExposition(b []byte) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m
}

// check verifies every served result: a result must be a run summary of
// the cell the request named, and every fetch of one key must return the
// same bytes, whether it was the fresh request, a join or a store hit.
// The server must have simulated each distinct fresh key exactly once.
func (sr *serveRun) check(out *outcome) {
	first := map[string][]byte{}
	freshKeys := map[string]bool{}
	for i, r := range sr.results {
		out.attempted++
		p := sr.plan[i]
		if r.err != nil {
			out.mismatch("%s request %s/%s seed %d: %v", p.kind, p.req.Bench, p.req.Scheme, p.req.Seed, r.err)
			continue
		}
		if p.kind == kindFresh {
			freshKeys[r.key] = true
		}
		if prev, ok := first[r.key]; ok {
			if !bytes.Equal(prev, r.body) {
				out.mismatch("%s request for key %.12s: result bytes differ from an earlier fetch", p.kind, r.key)
			}
			continue
		}
		first[r.key] = r.body
		var sum report.RunSummary
		if err := json.Unmarshal(r.body, &sum); err != nil || sum.Benchmark != p.req.Bench || sum.Seed != p.req.Seed || sum.Refs == 0 {
			out.mismatch("%s request %s seed %d: result is not its run summary (%v)", p.kind, p.req.Bench, p.req.Seed, err)
		}
	}
	if got := sr.metrics["vcoma_serve_sims_executed"]; got != float64(len(freshKeys)) {
		out.mismatch("server executed %v simulations for %d distinct fresh keys", got, len(freshKeys))
	}
}

// latencies splits result latencies (ms) into requests that waited on a
// simulation and store hits.
func (sr *serveRun) latencies() (waited, hits []float64) {
	for _, r := range sr.results {
		switch {
		case r.err != nil:
		case r.waited:
			waited = append(waited, millis(r.latency))
		default:
			hits = append(hits, millis(r.latency))
		}
	}
	return waited, hits
}

// runServe is the serve-mixed workload.
func runServe(cfg runConfig) (*outcome, error) {
	sr, err := closedLoop(cfg, serveBoots)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	sr.check(out)
	waited, hits := sr.latencies()
	if len(waited) == 0 {
		return nil, errors.New("no request waited on a simulation")
	}
	out.e2e = map[string]float64{
		"setup_s":     median(sr.setups),
		"peak_rss_mb": peakRSSMB(),
		"op_p50_ms":   median(waited),
	}

	var accept, fetch, queueWait, run []float64
	self := map[string][]float64{}
	polls := 0
	var traceT, reqT time.Duration
	for _, r := range sr.results {
		if r.err != nil {
			continue
		}
		accept = append(accept, millis(r.accept))
		if r.waited {
			fetch = append(fetch, millis(r.fetch))
			polls += r.polls
		}
		if r.selfMS != nil {
			queueWait = append(queueWait, millis(r.queueWait))
			run = append(run, millis(r.run))
			for k, v := range r.selfMS {
				self[k] = append(self[k], v)
			}
		}
		traceT += r.traceFetch
		reqT += r.latency + r.traceFetch
	}
	requests := float64(len(sr.results))
	out.layer = map[string]float64{
		"serve.result_p99_ms":     quantile(waited, 0.99),
		"serve.hit_p50_ms":        median(hits),
		"serve.waiting_requests":  float64(len(waited)),
		"serve.hit_requests":      float64(len(hits)),
		"serve.accept_p50_ms":     median(accept),
		"serve.accept_p99_ms":     quantile(accept, 0.99),
		"serve.queue_wait_p50_ms": median(queueWait),
		"serve.queue_wait_p99_ms": quantile(queueWait, 0.99),
		"serve.run_p50_ms":        median(run),
		"serve.fetch_p50_ms":      median(fetch),
		"serve.sims_executed":     sr.metrics["vcoma_serve_sims_executed"],
		"serve.store_hits":        sr.metrics["vcoma_serve_store_hits"],
		"serve.coalesced":         sr.metrics["vcoma_serve_coalesced"],
		"serve.rejected":          sr.metrics["vcoma_serve_rejected_overload"] + sr.metrics["vcoma_serve_rejected_tenant"],
		"fsio.ops":                float64(sr.fsOps) / requests,
		"fsio.fsyncs":             float64(sr.fsyncs) / requests,
		"bench.polls_per_request": float64(polls) / float64(len(waited)),
	}
	for _, name := range []string{"admit", "journal-fsync", "queue-wait", "cache-probe", "simulate", "store-put"} {
		out.layer["span."+name+".self_p50_ms"] = median(self[name])
	}
	if reqT > 0 {
		out.layer["obs.trace_overhead"] = seconds(traceT) / seconds(reqT)
	}
	return out, nil
}
