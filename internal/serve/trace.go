package serve

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"vcoma/internal/obs"
	"vcoma/internal/runner"
)

// Per-job trace persistence. When a job retires, its request trace is
// written twice under StateDir/traces: <key>.spans.json (the span tree the
// /trace endpoint serves, exactly) and <key>.trace.json (the same spans as a
// Chrome/Perfetto trace-event file, loadable into the viewer next to the
// simulator's own per-node dumps). Live jobs serve their tree from memory;
// the files make traces outlive done-retention and restarts.

// traceRetention bounds how many trace file pairs StateDir/traces keeps;
// older pairs are pruned oldest-first through a traceIndex. Matches the
// queue's done-retention scale rather than the (much larger) artifact store
// bound, because traces describe requests, not results.
const traceRetention = doneRetention

func (s *Server) traceDir() string {
	return filepath.Join(s.opts.StateDir, "traces")
}

func (s *Server) spanPath(key runner.Key) string {
	return filepath.Join(s.traceDir(), string(key)+spanSuffix)
}

func (s *Server) chromePath(key runner.Key) string {
	return filepath.Join(s.traceDir(), string(key)+chromeSuffix)
}

// writeTrace persists a retired job's trace files, atomically: each sidecar
// is written whole through the fsio seam (temp + fsync + rename), so a crash
// or fault mid-write never leaves a torn trace to serve later. Failures are
// logged and fed to the health tracker, not fatal: tracing is observational
// and must never fail a job that simulated correctly.
func (s *Server) writeTrace(j *Job) {
	tr := j.Trace()
	if tr == nil {
		return
	}
	if err := s.fs.MkdirAll("trace", s.traceDir()); err != nil {
		s.log.Warn("trace dir", "error", err.Error())
		return
	}
	tree := tr.Export()
	b, err := json.MarshalIndent(tree, "", "  ")
	if err == nil {
		err = s.fs.WriteFileAtomic("trace", s.spanPath(j.Key), append(b, '\n'))
		s.noteWrite("trace", err)
	}
	if err != nil {
		s.log.Warn("trace write", "trace_id", string(tr.ID()), "job_key", string(j.Key), "error", err.Error())
		return
	}
	// The Perfetto rendering: a fresh tracer holding just this request's
	// track (pid 0 = the service, tid 1 = the request), rendered to memory
	// and persisted with the same atomic discipline.
	ct := obs.NewTracer(4096, "")
	tr.AppendChrome(ct, 0, 1)
	var buf bytes.Buffer
	if err := ct.WriteJSON(&buf, "vcoma-serve request "+string(tr.ID())); err == nil {
		err = s.fs.WriteFileAtomic("trace", s.chromePath(j.Key), buf.Bytes())
		s.noteWrite("trace", err)
	}
	if err != nil {
		s.log.Warn("trace write", "trace_id", string(tr.ID()), "job_key", string(j.Key), "error", err.Error())
	}
	s.traces.add(string(j.Key))
}

// traceIndex lists a trace directory's persisted pairs oldest-first, so
// retiring a job prunes the oldest pairs without rescanning the directory.
// One scan, ordered by the span dumps' modification times, seeds it on first
// use (the pairs a previous process left); after that it follows the
// server's own writes. Safe for concurrent use.
type traceIndex struct {
	dir  string
	keep int

	mu     sync.Mutex
	seeded bool
	order  list.List // of string keys, oldest at the front
	at     map[string]*list.Element
}

const (
	spanSuffix   = ".spans.json"
	chromeSuffix = ".trace.json"
)

func newTraceIndex(dir string, keep int) *traceIndex {
	return &traceIndex{dir: dir, keep: keep, at: map[string]*list.Element{}}
}

// seed indexes the span dumps already in the directory, oldest first. A
// failed scan leaves the index empty: pruning then covers only the pairs
// this process writes.
func (ix *traceIndex) seed() {
	ix.seeded = true
	ents, err := os.ReadDir(ix.dir)
	if err != nil {
		return
	}
	type aged struct {
		key   string
		mtime int64
	}
	var dumps []aged
	for _, e := range ents {
		key, ok := strings.CutSuffix(e.Name(), spanSuffix)
		if e.IsDir() || !ok || key == "" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		dumps = append(dumps, aged{key: key, mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(dumps, func(i, j int) bool {
		if dumps[i].mtime != dumps[j].mtime {
			return dumps[i].mtime < dumps[j].mtime
		}
		return dumps[i].key < dumps[j].key
	})
	for _, d := range dumps {
		ix.at[d.key] = ix.order.PushBack(d.key)
	}
}

// add records that key's pair was just (re)written, making it the newest,
// and deletes the oldest pairs beyond retention — both files of a pair
// together. Best-effort: a failed delete is not retried.
func (ix *traceIndex) add(key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.seeded {
		ix.seed()
	}
	if e, ok := ix.at[key]; ok {
		ix.order.MoveToBack(e)
	} else {
		ix.at[key] = ix.order.PushBack(key)
	}
	for ix.order.Len() > ix.keep {
		old := ix.order.Remove(ix.order.Front()).(string)
		delete(ix.at, old)
		os.Remove(filepath.Join(ix.dir, old+spanSuffix))
		os.Remove(filepath.Join(ix.dir, old+chromeSuffix))
	}
}

// handleTrace serves a job's span tree: live jobs (queued, running, or still
// in done-retention) export straight from memory — open spans show their
// duration so far — and retired jobs fall back to the persisted span dump.
// ?format=chrome serves the Perfetto trace-event rendering instead.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	key, j, ok := s.lookup(r)
	chrome := r.URL.Query().Get("format") == "chrome"
	if ok {
		if tr := j.Trace(); tr != nil {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Vcoma-Trace", string(tr.ID()))
			if chrome {
				ct := obs.NewTracer(4096, "")
				tr.AppendChrome(ct, 0, 1)
				_ = ct.WriteJSON(w, "vcoma-serve request "+string(tr.ID()))
				return
			}
			writeJSON(w, http.StatusOK, tr.Export())
			return
		}
	}
	path := s.spanPath(key)
	if chrome {
		path = s.chromePath(key)
	}
	// Persisted dumps are validated before serving: a file a crash or fault
	// tore mid-write (pre-atomic-write vintage, or a corrupted disk) is
	// indistinguishable from absent — a torn trace must never be served.
	if b, err := os.ReadFile(path); err == nil && json.Valid(b) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("serve: no trace for job %.16s…", key))
}
