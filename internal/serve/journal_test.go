package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcoma/internal/fsio"
)

func TestJournalReplayPendingOnly(t *testing.T) {
	dir := t.TempDir()
	j, pending, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending", len(pending))
	}
	r1 := req("l0", 1)
	r2 := req("l1", 2)
	r3 := req("l2", 3)
	k1, _ := keyOf(r1)
	k3, _ := keyOf(r3)
	for _, rec := range []struct {
		r Request
	}{{r1}, {r2}, {r3}} {
		k, _ := keyOf(rec.r)
		if err := j.Accept(k, rec.r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Retire(k1, "done"); err != nil {
		t.Fatal(err)
	}
	if err := j.Retire(k3, "cancel"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// An accept written by a server that still took "priority" and "tenant"
	// in the request: the fields are ignored, and the key never held them.
	legacy := req("l3", 4)
	kl, _ := keyOf(legacy)
	appendLine(t, filepath.Join(dir, journalName), `{"op":"accept","key":"`+string(kl)+
		`","req":{"bench":"RADIX","scheme":"l3","scale":"test","seed":4,"priority":"high","tenant":"a"}}`+"\n")

	j2, pending, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(pending) != 2 || pending[0].Scheme != "l1" || pending[1].Scheme != "l3" {
		t.Fatalf("pending after replay: %+v, want the l1 and the legacy l3 request", pending)
	}
	if k, ok := keyOf(pending[1]); !ok || k != kl {
		t.Fatalf("legacy accept resolves to %.16s (ok=%v), want %.16s", k, ok, kl)
	}

	// Both resume in a server booted on the state dir.
	s, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if got := s.metrics.resumed.Load(); got != 2 {
		t.Fatalf("resumed=%d, want 2", got)
	}
	if j, ok := s.queue.Get(kl); !ok || j.State() != StateQueued {
		t.Fatalf("legacy accept not re-enqueued under its key (found=%v)", ok)
	}
}

func TestJournalCompactsOnOpen(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		r := req("l0", i)
		k, _ := keyOf(r)
		if err := j.Accept(k, r); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := j.Retire(k, "done"); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()

	j2, pending, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 10 {
		t.Fatalf("pending=%d, want 10", len(pending))
	}
	// The compacted file holds the header plus one accept per pending job.
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines != 11 {
		t.Fatalf("compacted journal has %d lines, want 11 (header + 10 accepts)", lines)
	}
}

func TestJournalToleratesTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := req("l0", 1)
	k, _ := keyOf(r)
	if err := j.Accept(k, r); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-append: a half-written record at the tail.
	appendLine(t, filepath.Join(dir, journalName), `{"op":"done","key":"deadbe`)

	j2, pending, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatalf("torn line broke replay: %v", err)
	}
	defer j2.Close()
	if len(pending) != 1 {
		t.Fatalf("pending=%d after torn line, want 1 (the accept still counts)", len(pending))
	}
}

// An accept whose append tears must not take later accepts down with it:
// the next record starts a fresh line, and replay skips the torn one and
// keeps reading. The job whose client got its 202 stays pending.
func TestJournalTornAcceptKeepsLaterAccepts(t *testing.T) {
	dir := t.TempDir()
	fs := fsio.New(nil)
	j, _, err := OpenJournal(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	r1 := req("l0", 1)
	r2 := req("l1", 2)
	k1, _ := keyOf(r1)
	k2, _ := keyOf(r2)
	fs.SetFailpoints(fsio.MustFailpoints("torn:journal:7"))
	if err := j.Accept(k1, r1); err == nil {
		t.Fatal("torn accept reported success")
	}
	fs.SetFailpoints(nil)
	if err := j.Accept(k2, r2); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, pending, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 1 || pending[0].Scheme != "l1" {
		t.Fatalf("pending after a torn accept = %+v, want just the l1 request", pending)
	}
}

// appendLine appends raw bytes to a journal file, as another writer (a crash
// mid-append, or an older server) would have left them.
func appendLine(t *testing.T, path, line string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(line); err != nil {
		t.Fatal(err)
	}
}
