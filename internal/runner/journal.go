package runner

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"vcoma/internal/fsio"
)

// journalSchema versions the journal file format.
const journalSchema = "vcoma-journal-v1"

// journalName is the sweep journal's file name inside a cache directory.
const journalName = "journal.json"

// Journal is an append-only record of a suite run, written next to the
// result cache. Each completed job appends one line, synced to disk, so a
// run killed mid-flight (SIGTERM, panic, power loss) leaves an exact record
// of how far it got. A journal whose run completed is deleted; one left
// behind marks an interrupted run that `vcoma-report -resume` can continue —
// the plan hash in the header guarantees the resume is continuing the same
// run (same sections, benchmarks, scale and configuration), and the
// content-addressed cache supplies the already-computed results.
type Journal struct {
	path string
	fs   *fsio.FS

	mu      sync.Mutex
	log     *fsio.Log // nil once closed
	entries map[string]JournalEntry
}

// journalHeader is the first line of the file.
type journalHeader struct {
	Schema string `json:"schema"`
	// Plan is the content hash of the whole job plan (names and keys in
	// order); a resume against a different plan is refused.
	Plan Key `json:"plan"`
	// Jobs is the planned job count, for progress reporting.
	Jobs int `json:"jobs"`
}

// JournalEntry is one recorded job completion. The reader ignores fields
// it does not know, so journals whose entries also carry "class" and
// "attempts" still resume under the same schema.
type JournalEntry struct {
	Job    string `json:"job"`
	Status string `json:"status"` // "done" or "failed"
	Error  string `json:"error,omitempty"`
	Cached bool   `json:"cached,omitempty"`
}

// SweepJournal opens the journal of a sweep over jobs whose results live in
// cacheDir. With resume it reopens the interrupted run's journal and tells w
// how many passes it records; otherwise it starts a fresh one.
func SweepJournal(cacheDir string, jobs []Job, resume bool, fs *fsio.FS, w io.Writer) (*Journal, error) {
	path := filepath.Join(cacheDir, journalName)
	if !resume {
		return CreateJournal(path, PlanKey(jobs), len(jobs), fs)
	}
	j, prev, err := ResumeJournal(path, PlanKey(jobs), fs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "resuming: journal records %d finished pass(es); cached results satisfy them without recomputing\n", len(prev))
	return j, nil
}

// CreateJournal starts a fresh journal at path for a plan of total jobs,
// truncating any previous (crashed) journal. Appends and syncs go through
// fs (nil = plain durable I/O), so they are fault-injectable.
func CreateJournal(path string, plan Key, total int, fs *fsio.FS) (*Journal, error) {
	log, err := fs.CreateLog("journal", path, journalHeader{Schema: journalSchema, Plan: plan, Jobs: total})
	if err != nil {
		return nil, fmt.Errorf("runner: creating journal: %w", err)
	}
	return &Journal{path: path, fs: fs, log: log, entries: make(map[string]JournalEntry)}, nil
}

// ResumeJournal reopens an interrupted run's journal at path, verifying it
// belongs to the same plan. It returns the journal (reopened for append)
// and the entries already recorded. A missing file is an error: there is
// nothing to resume.
func ResumeJournal(path string, plan Key, fs *fsio.FS) (*Journal, map[string]JournalEntry, error) {
	var h journalHeader
	recs, err := fsio.ReadLog[JournalEntry](fs, "journal", path, &h)
	switch {
	case os.IsNotExist(err):
		return nil, nil, fmt.Errorf("runner: no journal at %s: nothing to resume (the previous run completed, or never started)", path)
	case errors.Is(err, fsio.ErrNoHeader), err == nil && h.Schema != journalSchema:
		return nil, nil, fmt.Errorf("runner: journal %s has an unrecognized header", path)
	case err != nil:
		return nil, nil, fmt.Errorf("runner: reading journal: %w", err)
	case h.Plan != plan:
		return nil, nil, fmt.Errorf("runner: journal %s records a different sweep (plan %.16s…, this run is %.16s…) — rerun with the original flags, or start fresh without -resume", path, h.Plan, plan)
	}
	entries := make(map[string]JournalEntry)
	for _, e := range recs {
		if e.Job != "" {
			entries[e.Job] = e
		}
	}
	log, err := fs.OpenLog("journal", path)
	if err != nil {
		return nil, nil, fmt.Errorf("runner: reopening journal: %w", err)
	}
	return &Journal{path: path, fs: fs, log: log, entries: entries}, entries, nil
}

// record appends one job completion and syncs it to disk.
func (j *Journal) record(r Result) {
	e := JournalEntry{Job: r.Name, Status: "done", Cached: r.Cached}
	if r.Err != nil {
		e.Status = "failed"
		e.Error = r.Err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return
	}
	j.entries[r.Name] = e
	_ = j.log.Append(e)
}

// Done counts jobs recorded as done (succeeded).
func (j *Journal) Done() int { return j.count("done") }

// Failed counts jobs recorded as failed.
func (j *Journal) Failed() int { return j.count("failed") }

func (j *Journal) count(status string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range j.entries {
		if e.Status == status {
			n++
		}
	}
	return n
}

// Close closes the journal, leaving the file in place (an interrupted run
// keeps its journal so -resume can find it).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}

// Complete closes and deletes the journal: the run finished, there is
// nothing left to resume.
func (j *Journal) Complete() error {
	if err := j.Close(); err != nil {
		return err
	}
	return j.fs.Remove("journal", j.path)
}
