package serve

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"vcoma/internal/obs"
)

// serverMetrics is the service's own instrumentation. The obs package's
// instruments are deliberately single-threaded (simulation-loop speed), so
// the HTTP layer keeps its hot counters in atomics and exposes them to the
// obs.Registry as probes, and serializes histogram access behind a mutex.
type serverMetrics struct {
	reg *obs.Registry

	submits      atomic.Uint64 // accepted requests (incl. coalesced)
	coalesced    atomic.Uint64 // requests joined onto an in-flight job
	storeHits    atomic.Uint64 // requests answered from the artifact store
	simsExecuted atomic.Uint64 // simulations actually run (not cache hits)
	rejected     atomic.Uint64 // 429s (queue full)
	canceled     atomic.Uint64 // jobs whose every waiter gave up
	failed       atomic.Uint64 // simulations that errored
	resumed      atomic.Uint64 // jobs re-enqueued from the journal at boot

	hmu       sync.Mutex
	queueWait *obs.Histogram // milliseconds queued before a worker picked it up
	runTime   *obs.Histogram // milliseconds simulating (fresh runs only)
}

// metricMeta maps each registry name to its Prometheus HELP text and TYPE.
// Names absent from the table are exposed as untyped gauges without help —
// nothing is silently dropped when someone registers a new probe.
var metricMeta = map[string]struct{ Help, Type string }{
	"serve/submits":           {"Accepted requests, including coalesced joins.", "counter"},
	"serve/coalesced":         {"Requests joined onto an already in-flight job.", "counter"},
	"serve/store.hits":        {"Requests answered directly from the artifact store.", "counter"},
	"serve/sims.executed":     {"Simulations actually executed (store misses).", "counter"},
	"serve/rejected.overload": {"Submits rejected because the queue was full.", "counter"},
	"serve/canceled":          {"Jobs canceled because every waiter withdrew.", "counter"},
	"serve/failed":            {"Jobs whose simulation errored.", "counter"},
	"serve/resumed":           {"Jobs re-enqueued from the accept journal at boot.", "counter"},
	"serve/queue.depth":       {"Jobs currently queued.", "gauge"},
	"serve/queue.running":     {"Jobs currently being simulated.", "gauge"},
	"serve/store.bytes":       {"Artifact store payload bytes on disk.", "gauge"},
	"serve/store.entries":     {"Artifact store entries on disk.", "gauge"},
	"serve/store.evicted":     {"Artifacts evicted by the store's LRU bound.", "counter"},
	"serve/store.quarantined": {"Corrupt artifacts quarantined by checksum verification.", "counter"},
	"serve/lat.queue_wait_ms": {"Milliseconds a job waited in queue before dispatch.", "histogram"},
	"serve/lat.run_ms":        {"Milliseconds a fresh simulation took end to end.", "histogram"},
	"serve/degraded":          {"1 while the server is in storage-degraded mode, else 0.", "gauge"},
	"serve/write.failures":    {"Durable write failures (journal, artifact puts, traces).", "counter"},
	"serve/probe.failures":    {"Failed degraded-mode self-heal write probes.", "counter"},
	"serve/mem.results":       {"Results currently held only in memory (store bypass).", "gauge"},
	"serve/mem.served":        {"Result reads answered from the memory holdover.", "counter"},
	"fsio/ops":                {"Filesystem operations through the fsio seam.", "counter"},
	"fsio/errors":             {"Filesystem operations that returned an error.", "counter"},
	"fsio/injected":           {"Filesystem errors injected by armed failpoints.", "counter"},
}

func newServerMetrics(s *Server) *serverMetrics {
	queue, store := s.queue, s.store
	m := &serverMetrics{reg: obs.NewRegistry()}
	probe := func(name string, v *atomic.Uint64) {
		m.reg.Probe(name, func() float64 { return float64(v.Load()) })
	}
	probe("serve/submits", &m.submits)
	probe("serve/coalesced", &m.coalesced)
	probe("serve/store.hits", &m.storeHits)
	probe("serve/sims.executed", &m.simsExecuted)
	probe("serve/rejected.overload", &m.rejected)
	probe("serve/canceled", &m.canceled)
	probe("serve/failed", &m.failed)
	probe("serve/resumed", &m.resumed)
	m.reg.Probe("serve/queue.depth", func() float64 { return float64(queue.Snapshot().Queued) })
	m.reg.Probe("serve/queue.running", func() float64 { return float64(queue.Snapshot().Running) })
	m.reg.Probe("serve/store.bytes", func() float64 { return float64(store.Snapshot().Bytes) })
	m.reg.Probe("serve/store.entries", func() float64 { return float64(store.Snapshot().Entries) })
	m.reg.Probe("serve/store.evicted", func() float64 { return float64(store.Snapshot().Evicted) })
	m.reg.Probe("serve/store.quarantined", func() float64 { return float64(store.Snapshot().Quarantined) })
	m.reg.Probe("serve/degraded", func() float64 {
		if s.health.Degraded() {
			return 1
		}
		return 0
	})
	m.reg.Probe("serve/write.failures", func() float64 { return float64(s.health.Snapshot().WriteFailures) })
	m.reg.Probe("serve/probe.failures", func() float64 { return float64(s.health.Snapshot().ProbeFailures) })
	m.reg.Probe("serve/mem.results", func() float64 { return float64(s.mem.Len()) })
	m.reg.Probe("serve/mem.served", func() float64 { return float64(s.mem.Served()) })
	m.reg.Probe("fsio/ops", func() float64 { return float64(s.fs.Counters().Ops) })
	m.reg.Probe("fsio/errors", func() float64 { return float64(s.fs.Counters().Errors) })
	m.reg.Probe("fsio/injected", func() float64 { return float64(s.fs.Counters().Injected) })
	m.queueWait = m.reg.Histogram("serve/lat.queue_wait_ms")
	m.runTime = m.reg.Histogram("serve/lat.run_ms")
	return m
}

func (m *serverMetrics) observeQueueWait(ms uint64) {
	m.hmu.Lock()
	m.queueWait.Observe(ms)
	m.hmu.Unlock()
}

func (m *serverMetrics) observeRunTime(ms uint64) {
	m.hmu.Lock()
	m.runTime.Observe(ms)
	m.hmu.Unlock()
}

// promName maps an internal registry name ("serve/lat.queue_wait_ms") to a
// legal Prometheus metric name ("vcoma_serve_lat_queue_wait_ms"): every
// non-alphanumeric rune becomes an underscore under a vcoma_ namespace.
func promName(name string) string {
	b := make([]byte, 0, len(name)+6)
	b = append(b, "vcoma_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// write renders GET /metrics in the Prometheus text exposition format:
// every series preceded by its # HELP and # TYPE lines, histograms as
// cumulative _bucket{le="..."} series (power-of-two upper bounds, closed by
// le="+Inf") plus _sum and _count. The histogram's observed maximum, which
// the bucket layout would otherwise round up, is kept as a companion
// _max gauge.
func (m *serverMetrics) write(w io.Writer) {
	for _, name := range m.reg.Names() {
		v, ok := m.reg.Value(name)
		if !ok {
			continue
		}
		pn := promName(name)
		meta := metricMeta[name]
		if meta.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", pn, meta.Help)
		}
		typ := meta.Type
		if typ == "" {
			typ = "gauge"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", pn, typ)
		fmt.Fprintf(w, "%s %g\n", pn, v)
	}
	m.hmu.Lock()
	hists := m.reg.Histograms()
	m.hmu.Unlock()
	for _, h := range hists {
		pn := promName(h.Name)
		if meta := metricMeta[h.Name]; meta.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", pn, meta.Help)
		}
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		cum := uint64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.Hi, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
		fmt.Fprintf(w, "# TYPE %s_max gauge\n", pn)
		fmt.Fprintf(w, "%s_max %d\n", pn, h.Max)
	}
}
