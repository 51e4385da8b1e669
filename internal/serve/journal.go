package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"vcoma/internal/fsio"
	"vcoma/internal/runner"
)

// journalSchema versions the accept-log format.
const journalSchema = "vcoma-serve-journal-v1"

// journalName is the accept log's file name inside the state directory.
const journalName = "serve-journal.json"

// journalRecord is one line of the accept log. The first line is a header
// carrying only Schema; every other line is an operation on one job key.
type journalRecord struct {
	Schema string `json:"schema,omitempty"`
	// Op is accept, done, fail or cancel.
	Op  string     `json:"op,omitempty"`
	Key runner.Key `json:"key,omitempty"`
	// Req is the original wire request, kept on accept records so a
	// restarted server can re-resolve and re-enqueue the job.
	Req *Request `json:"req,omitempty"`
}

// Journal is the server's crash-safe accept log: every admitted job is
// recorded (fsync'd) before the client hears 202, and retired when it
// reaches a terminal state. On restart the pending set — accepted but not
// retired — is re-enqueued, so a SIGTERM'd server picks its backlog back up
// and, because results are content-addressed, serves byte-identical
// artifacts for them. Torn lines (crash or failed write mid-record) are
// skipped wherever they sit, like the runner journal.
type Journal struct {
	log *fsio.Log
}

// OpenJournal opens (creating if needed) the accept log in stateDir through
// fs (nil = plain durable I/O), returning the journal and the pending
// requests replayed from any previous incarnation. The log is compacted on
// open: retired records are dropped and only the pending accepts are
// rewritten.
func OpenJournal(stateDir string, fs *fsio.FS) (*Journal, []Request, error) {
	if err := fs.MkdirAll("journal", stateDir); err != nil {
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	path := filepath.Join(stateDir, journalName)
	pending, err := replay(fs, path)
	if err != nil {
		return nil, nil, err
	}
	var accepts []any
	for i := range pending {
		if key, ok := keyOf(pending[i]); ok {
			accepts = append(accepts, journalRecord{Op: "accept", Key: key, Req: &pending[i]})
		}
	}
	log, err := fs.RewriteLog("journal", path, journalRecord{Schema: journalSchema}, accepts)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: log}, pending, nil
}

// keyOf resolves a journaled request to its job key; requests that no
// longer resolve (schema drift) are dropped from the pending set.
func keyOf(r Request) (runner.Key, bool) {
	spec, err := r.Resolve()
	if err != nil {
		return "", false
	}
	return spec.Key(), true
}

// replay reads the log and returns the pending (accepted, not retired)
// requests in accept order. One request per key — coalesced waiters are
// HTTP connections, which do not survive a restart. A missing log, or one
// without a readable header of this schema, replays nothing.
func replay(fs *fsio.FS, path string) ([]Request, error) {
	var h journalRecord
	recs, err := fsio.ReadLog[journalRecord](fs, "journal", path, &h)
	if os.IsNotExist(err) || errors.Is(err, fsio.ErrNoHeader) || err == nil && h.Schema != journalSchema {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	type slot struct {
		req   Request
		alive bool
	}
	byKey := map[runner.Key]*slot{}
	var order []runner.Key
	for _, rec := range recs {
		switch rec.Op {
		case "accept":
			if rec.Req == nil || rec.Key == "" {
				continue
			}
			if s, ok := byKey[rec.Key]; ok {
				s.alive = true
				continue
			}
			byKey[rec.Key] = &slot{req: *rec.Req, alive: true}
			order = append(order, rec.Key)
		case "done", "fail", "cancel":
			if s, ok := byKey[rec.Key]; ok {
				s.alive = false
			}
		}
	}
	var pending []Request
	for _, k := range order {
		if s := byKey[k]; s.alive {
			pending = append(pending, s.req)
		}
	}
	return pending, nil
}

// record appends one line and fsyncs it — the durability point.
func (j *Journal) record(rec journalRecord) error {
	if j == nil {
		return nil
	}
	return j.log.Append(rec)
}

// Accept records an admitted job before its 202 is sent.
func (j *Journal) Accept(key runner.Key, req Request) error {
	return j.record(journalRecord{Op: "accept", Key: key, Req: &req})
}

// Retire records a job's terminal state: op is "done" (artifact stored),
// "fail" (errored; the client saw the failure, so it is not re-run on
// restart) or "cancel" (every waiter abandoned it).
func (j *Journal) Retire(key runner.Key, op string) error {
	return j.record(journalRecord{Op: op, Key: key})
}

// Close closes the log file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}
