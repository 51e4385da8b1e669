package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vcoma/internal/cli"
	"vcoma/internal/obs"
)

// syncBuf captures the server's log from concurrent goroutines.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// spanNames flattens a span tree into the set of span names it holds.
func spanNames(nodes []obs.SpanNode, into map[string]bool) {
	for _, n := range nodes {
		into[n.Name] = true
		spanNames(n.Children, into)
	}
}

// TestServiceTraceEndToEnd is the tentpole acceptance criterion: one
// submitted job yields the same trace id in the 202 body, the X-Vcoma-Trace
// header, every structured log line about the job, the /trace span tree —
// which holds the full accept-to-simulate chain — and the persisted
// Perfetto file.
func TestServiceTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	logBuf := &syncBuf{}
	_, ts, _ := testServer(t, dir, func(o *Options) {
		o.Log = cli.NewLogger(logBuf, "vcoma-serve", "json", slog.LevelDebug)
	})

	code, body, hdr := post(t, ts.URL+"/v1/jobs", Request{Bench: "RADIX", Scheme: "l0", Scale: "test"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, body)
	}
	var resp submitResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" || !obs.ValidTraceID(resp.TraceID) {
		t.Fatalf("202 carried no valid trace id: %q", resp.TraceID)
	}
	if got := hdr.Get("X-Vcoma-Trace"); got != resp.TraceID {
		t.Fatalf("X-Vcoma-Trace %q != body trace_id %q", got, resp.TraceID)
	}
	if resp.Trace == "" {
		t.Fatal("202 carried no trace_url")
	}
	waitFor(t, "job done", func() bool { return jobState(t, ts.URL, resp.Key) == "done" })

	// The status snapshot names the same trace.
	var st Status
	_, stBody := get(t, ts.URL+"/v1/jobs/"+resp.Key)
	if err := json.Unmarshal(stBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != resp.TraceID {
		t.Fatalf("status trace_id %q != submit trace_id %q", st.TraceID, resp.TraceID)
	}

	// The span tree is served under the same id and holds the whole chain
	// from HTTP accept to the simulation pass.
	code, tb := get(t, ts.URL+resp.Trace)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", resp.Trace, code, tb)
	}
	var tree obs.SpanTree
	if err := json.Unmarshal(tb, &tree); err != nil {
		t.Fatalf("span tree is not valid JSON: %v", err)
	}
	if string(tree.TraceID) != resp.TraceID {
		t.Fatalf("span tree trace_id %q != submit trace_id %q", tree.TraceID, resp.TraceID)
	}
	names := map[string]bool{}
	spanNames(tree.Spans, names)
	for _, want := range []string{"request", "admit", "journal-fsync", "queue-wait", "run", "build", "simulate"} {
		if !names[want] {
			t.Errorf("span tree lacks the %s span (has %v)", want, names)
		}
	}

	// A Perfetto-loadable trace file is persisted next to the spans and
	// carries the id. The worker writes it just after it marks the job
	// done, so wait for it rather than race the write.
	chromePath := filepath.Join(dir, "traces", resp.Key+".trace.json")
	waitFor(t, "persisted Perfetto trace", func() bool {
		_, err := os.Stat(chromePath)
		return err == nil
	})
	chrome, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatalf("persisted Perfetto trace: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("Perfetto trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Perfetto trace holds no events")
	}
	if !bytes.Contains(chrome, []byte(resp.TraceID)) {
		t.Fatal("Perfetto trace lacks the trace id")
	}

	// Every log line about this job carries the trace id — the grep contract
	// operators rely on.
	jobLines := 0
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if !strings.Contains(line, `"job_key":"`+resp.Key+`"`) {
			continue
		}
		jobLines++
		if !strings.Contains(line, `"trace_id":"`+resp.TraceID+`"`) {
			t.Errorf("job log line lacks trace_id: %s", line)
		}
	}
	if jobLines < 2 {
		t.Fatalf("expected at least start+done log lines for the job, got %d", jobLines)
	}
}

// writePair writes key's span dump and Perfetto file with modification time
// sec (seconds after an arbitrary epoch), as writeTrace would.
func writePair(t *testing.T, dir, key string, sec int64) {
	t.Helper()
	mtime := time.Unix(1_700_000_000+sec, 0)
	for _, suffix := range []string{spanSuffix, chromeSuffix} {
		p := filepath.Join(dir, key+suffix)
		if err := os.WriteFile(p, []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
}

// tracePairs returns the keys whose span dump is on disk, failing if any
// pair is split (one file present without the other).
func tracePairs(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, e := range ents {
		files[e.Name()] = true
	}
	var keys []string
	for name := range files {
		if key, ok := strings.CutSuffix(name, spanSuffix); ok {
			if !files[key+chromeSuffix] {
				t.Fatalf("pair %s split: span dump without its Perfetto file", key)
			}
			keys = append(keys, key)
		} else if key, ok := strings.CutSuffix(name, chromeSuffix); ok && !files[key+spanSuffix] {
			t.Fatalf("pair %s split: Perfetto file without its span dump", key)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestTraceIndexRetention checks the oldest-first trace index: retention
// holds across a restart (a fresh index seeds from the directory by age),
// a rewritten key becomes the newest, and a pruned pair's two files leave
// together.
func TestTraceIndexRetention(t *testing.T) {
	dir := t.TempDir()
	// A previous process left five pairs, written in the order k1..k5
	// though their names sort otherwise.
	for i, key := range []string{"k3", "k1", "k5", "k2", "k4"} {
		writePair(t, dir, key, int64(i))
	}
	ix := newTraceIndex(dir, 4)
	// The restarted process writes a new pair: the index seeds itself
	// and prunes the two oldest pairs to get back to four.
	writePair(t, dir, "k6", 10)
	ix.add("k6")
	if got, want := tracePairs(t, dir), []string{"k2", "k4", "k5", "k6"}; !slices.Equal(got, want) {
		t.Fatalf("after restart: pairs %v, want %v", got, want)
	}
	// k5 is now the oldest. Rewriting it makes it the newest, so the next
	// prune takes k2 instead.
	writePair(t, dir, "k5", 11)
	ix.add("k5")
	writePair(t, dir, "k7", 12)
	ix.add("k7")
	if got, want := tracePairs(t, dir), []string{"k4", "k5", "k6", "k7"}; !slices.Equal(got, want) {
		t.Fatalf("after rewrite: pairs %v, want %v", got, want)
	}
	// A second restart sees the rewritten key's fresh mtime.
	ix = newTraceIndex(dir, 4)
	writePair(t, dir, "k8", 13)
	ix.add("k8")
	if got, want := tracePairs(t, dir), []string{"k5", "k6", "k7", "k8"}; !slices.Equal(got, want) {
		t.Fatalf("after second restart: pairs %v, want %v", got, want)
	}
}

// TestTraceIndexConcurrentRetire retires jobs from several goroutines at
// once, as concurrent workers do, and checks that retention still holds and
// no pair is split.
func TestTraceIndexConcurrentRetire(t *testing.T) {
	dir := t.TempDir()
	ix := newTraceIndex(dir, 5)
	// Seed the index first: its one directory scan must not catch a pair
	// half written.
	writePair(t, dir, "first", 0)
	ix.add("first")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("w%d-%02d", w, i)
				for _, suffix := range []string{spanSuffix, chromeSuffix} {
					if err := os.WriteFile(filepath.Join(dir, key+suffix), []byte("{}\n"), 0o644); err != nil {
						t.Error(err)
						return
					}
				}
				ix.add(key)
			}
		}(w)
	}
	wg.Wait()
	if got := tracePairs(t, dir); len(got) != 5 {
		t.Fatalf("%d pairs kept (%v), want 5", len(got), got)
	}
}
