package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"vcoma/internal/fsio"
)

// countEntries walks the cache dir counting files outside quarantine.
func countEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && d.Name() == quarantineDir {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			n++
		}
		return nil
	})
	return n
}

func TestPutENOSPCLeavesNoPartialEntry(t *testing.T) {
	dir := t.TempDir()
	fs := fsio.New(fsio.MustFailpoints("enospc:put:*"))
	c, err := OpenCacheFS(dir, fs)
	if err != nil {
		t.Fatalf("OpenCacheFS: %v", err)
	}
	key := KeyOf("enospc-test")
	err = c.Put(key, "job-a", map[string]int{"v": 1})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put under ENOSPC: want ENOSPC, got %v", err)
	}
	if got := countEntries(t, dir); got != 0 {
		t.Fatalf("failed Put left %d files behind", got)
	}
	var out map[string]int
	if c.Get(key, &out) {
		t.Fatalf("Get after failed Put must miss")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after failed Put", c.Len())
	}
}

func TestPutFsyncFailureLeavesNoPartialEntry(t *testing.T) {
	// The nastier case the old writeFileAtomic couldn't even express: the
	// data is written but the fsync fails, so the bytes may not be on disk.
	// The atomic writer must abort before the rename.
	dir := t.TempDir()
	fs := fsio.New(fsio.MustFailpoints("eio:fsync:*"))
	c, err := OpenCacheFS(dir, fs)
	if err != nil {
		t.Fatalf("OpenCacheFS: %v", err)
	}
	key := KeyOf("fsync-test")
	if err := c.Put(key, "job-a", 42); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put under failing fsync: want EIO, got %v", err)
	}
	if got := countEntries(t, dir); got != 0 {
		t.Fatalf("failed Put left %d files behind", got)
	}
}

func TestRunStillReturnsResultWhenPutFails(t *testing.T) {
	// A dead store must not take the computation down with it: the job's
	// in-memory result is returned even though nothing could be persisted.
	dir := t.TempDir()
	fs := fsio.New(fsio.MustFailpoints("enospc:put:*"))
	c, err := OpenCacheFS(dir, fs)
	if err != nil {
		t.Fatalf("OpenCacheFS: %v", err)
	}
	job := New("a", KeyOf("run-put-fail"), func(context.Context) (int, error) { return 7, nil })
	res, err := Run(context.Background(), []Job{job}, Options{Workers: 1, Cache: c})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Jobs["a"]
	if r.Err != nil || r.Value.(int) != 7 {
		t.Fatalf("job result lost to store failure: %+v", r)
	}
	if c.Len() != 0 {
		t.Fatalf("entry materialized despite injected ENOSPC")
	}
}

func TestCachePutDurabilityOpOrder(t *testing.T) {
	// Regression test for the original writeFileAtomic hole, via the
	// failpoint op log: Cache.Put must fsync the temp before renaming it
	// into place and fsync the parent directory after.
	dir := t.TempDir()
	fs := fsio.New(nil)
	rec := fsio.NewRecorder(dir, false)
	fs.SetRecorder(rec)
	c, err := OpenCacheFS(dir, fs)
	if err != nil {
		t.Fatalf("OpenCacheFS: %v", err)
	}
	if err := c.Put(KeyOf("order"), "job-a", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	var seq []string
	for _, op := range rec.Ops() {
		if op.Tag == "put" && op.Op != fsio.OpMkdir {
			seq = append(seq, op.Op)
		}
	}
	want := []string{fsio.OpCreate, fsio.OpWrite, fsio.OpFsync, fsio.OpRename, fsio.OpFsyncDir}
	if strings.Join(seq, ",") != strings.Join(want, ",") {
		t.Fatalf("Put op order = %v, want %v", seq, want)
	}
}

func TestTornJournalAppendIsDroppedOnResume(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.json")
	plan := KeyOf("torn-journal-plan")

	// Header (append 1) lands whole; the first record (append 2) tears
	// after 5 bytes.
	fs := fsio.New(nil)
	j, err := CreateJournal(jpath, plan, 2, fs)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	fs.SetFailpoints(fsio.MustFailpoints("torn:journal:5"))
	j.record(Result{Name: "jobs/one"})
	fs.SetFailpoints(nil)
	j.record(Result{Name: "jobs/two"})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, entries, err := ResumeJournal(jpath, plan, nil)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	if _, ok := entries["jobs/one"]; ok {
		t.Fatalf("torn record for jobs/one must not resume: %+v", entries)
	}
	if e, ok := entries["jobs/two"]; !ok || e.Status != "done" {
		t.Fatalf("intact record lost: %+v", entries)
	}
}

func TestJournalAppendsAfterPowerCutDoNotCorruptEarlierRecords(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.json")
	plan := KeyOf("powercut-journal-plan")
	// Header: open+append+fsync = 3 ops; first record: append+fsync = 2.
	// Cut the power right after (op 5), so the second record never lands.
	fs := fsio.New(fsio.MustFailpoints("powercut:5"))
	j, err := CreateJournal(jpath, plan, 2, fs)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	j.record(Result{Name: "jobs/one"})
	j.record(Result{Name: "jobs/two"}) // power is off; swallowed
	j.Close()

	_, entries, err := ResumeJournal(jpath, plan, nil)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries after power cut = %+v, want only jobs/one", entries)
	}
	if e := entries["jobs/one"]; e.Status != "done" {
		t.Fatalf("jobs/one = %+v", e)
	}
}

func TestEvictionUnderRemoveFailureKeepsCacheConsistent(t *testing.T) {
	dir := t.TempDir()
	fs := fsio.New(nil)
	c, err := OpenCacheFS(dir, fs)
	if err != nil {
		t.Fatalf("OpenCacheFS: %v", err)
	}
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = KeyOf(fmt.Sprintf("evict-%d", i))
		if err := c.Put(keys[i], "job", i); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	fs.SetFailpoints(fsio.MustFailpoints("eio:evict:*"))
	if err := c.Remove(keys[0]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Remove under EIO: want EIO, got %v", err)
	}
	fs.SetFailpoints(nil)
	// The failed removal must not have damaged the entry: it still reads
	// back validly, and nothing was quarantined.
	var v int
	if !c.Get(keys[0], &v) || v != 0 {
		t.Fatalf("entry corrupted by failed eviction: %v %d", c.Get(keys[0], &v), v)
	}
	if c.Quarantined() != 0 {
		t.Fatalf("failed eviction quarantined an entry")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}
