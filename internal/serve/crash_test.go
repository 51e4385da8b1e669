package serve

import (
	"fmt"
	"testing"

	"vcoma/internal/fsio"
	"vcoma/internal/fsio/crashsim"
	"vcoma/internal/runner"
)

// TestCrashSweepAcceptJournal replays every power-cut prefix of a recorded
// accept/retire story and asserts the journal's recovery invariants: reopen
// never errors (compaction tolerates any torn tail), the pending set it
// replays is always a subset of the accepts that were made durable, and a
// second reopen (compaction idempotence) replays the identical set.
func TestCrashSweepAcceptJournal(t *testing.T) {
	reqs := make([]Request, 3)
	accepted := map[runner.Key]bool{}
	for i := range reqs {
		reqs[i] = Request{Bench: "RADIX", Scheme: []string{"l0", "l1", "l2"}[i], Scale: "test", Seed: 7}
	}

	root := t.TempDir()
	fs := fsio.New(nil)
	rec := fsio.NewRecorder(root, true)
	fs.SetRecorder(rec)
	j, pending, err := OpenJournal(root, fs)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal replayed %d pending", len(pending))
	}
	for _, r := range reqs {
		spec, err := r.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Accept(spec.Key(), r); err != nil {
			t.Fatalf("Accept: %v", err)
		}
		accepted[spec.Key()] = true
	}
	// Retire the first (done) and cancel the second; the third stays pending.
	spec0, _ := reqs[0].Resolve()
	spec1, _ := reqs[1].Resolve()
	spec2, _ := reqs[2].Resolve()
	if err := j.Retire(spec0.Key(), "done"); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if err := j.Retire(spec1.Key(), "cancel"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	err = crashsim.Run(rec.Ops(), t.TempDir(), func(dir string) error {
		jj, pend, err := OpenJournal(dir, nil)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		jj.Close()
		seen := map[runner.Key]bool{}
		for _, r := range pend {
			sp, err := r.Resolve()
			if err != nil {
				return fmt.Errorf("pending request does not resolve: %w", err)
			}
			if !accepted[sp.Key()] {
				return fmt.Errorf("pending key %.8s was never accepted", sp.Key())
			}
			if seen[sp.Key()] {
				return fmt.Errorf("pending key %.8s replayed twice", sp.Key())
			}
			seen[sp.Key()] = true
		}
		// Idempotence: reopening the compacted journal replays the same set.
		jj2, pend2, err := OpenJournal(dir, nil)
		if err != nil {
			return fmt.Errorf("second reopen: %w", err)
		}
		jj2.Close()
		if len(pend2) != len(pend) {
			return fmt.Errorf("compaction not idempotent: %d then %d pending", len(pend), len(pend2))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("crash sweep: %v", err)
	}

	// The full, uninterrupted state must replay exactly the unretired accept.
	_, pend, err := OpenJournal(root, nil)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if len(pend) != 1 {
		t.Fatalf("final pending = %d requests, want 1", len(pend))
	}
	if sp, _ := pend[0].Resolve(); sp.Key() != spec2.Key() {
		t.Fatalf("final pending key %.8s, want %.8s", sp.Key(), spec2.Key())
	}
}
