package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vcoma/internal/fsio"
	"vcoma/internal/fsio/crashsim"
)

// TestCrashSweepCachePutServesWholeEntriesOrNothing records a trace of
// cache puts (including a quarantine) and asserts that in every power-cut
// state a reopened cache serves each key either its exact stored value or a
// miss — never torn bytes. Torn visible entries must go to quarantine.
func TestCrashSweepCachePutServesWholeEntriesOrNothing(t *testing.T) {
	root := t.TempDir()
	fs := fsio.New(nil)
	rec := fsio.NewRecorder(root, true)
	fs.SetRecorder(rec)
	c, err := OpenCacheFS(root, fs)
	if err != nil {
		t.Fatalf("OpenCacheFS: %v", err)
	}
	want := map[Key]string{}
	for i := 0; i < 3; i++ {
		key := KeyOf("crash-cache", i)
		val := fmt.Sprintf("value-%d-%s", i, key[:8])
		if err := c.Put(key, "job", val); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[key] = val
	}
	// A quarantine is part of the recorded story too: corrupt one entry in
	// place through the seam, then trigger the quarantine rename.
	var victim Key
	for k := range want {
		victim = k
		break
	}
	if err := fs.WriteFile("corrupt", c.EntryPath(victim), []byte("{torn")); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	c.SetLog(nil)
	if _, ok := c.GetRaw(victim); ok {
		t.Fatalf("corrupt entry served")
	}
	delete(want, victim)

	err = crashsim.Run(rec.Ops(), t.TempDir(), func(dir string) error {
		cc, err := OpenCache(dir)
		if err != nil {
			return err
		}
		cc.SetLog(nil)
		for key, val := range want {
			raw, ok := cc.GetRaw(key)
			if !ok {
				continue // a miss is a legal crash outcome; recompute covers it
			}
			var got string
			if err := json.Unmarshal(raw, &got); err != nil {
				return fmt.Errorf("key %.8s served undecodable bytes %q", key, raw)
			}
			if got != val {
				return fmt.Errorf("key %.8s served %q, want %q", key, got, val)
			}
		}
		// The victim may exist in pre-corruption states (whole old value),
		// but must never come back as torn JSON.
		if raw, ok := cc.GetRaw(victim); ok {
			var got string
			if err := json.Unmarshal(raw, &got); err != nil {
				return fmt.Errorf("victim served corrupt bytes %q", raw)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("crash sweep: %v", err)
	}
}

// crashPlanJobs builds a small deterministic plan.
func crashPlanJobs() []Job {
	jobs := make([]Job, 0, 4)
	for i := 0; i < 4; i++ {
		i := i
		jobs = append(jobs, New(fmt.Sprintf("jobs/%d", i), KeyOf("crash-plan", i),
			func(context.Context) (map[string]int, error) {
				return map[string]int{"i": i, "sq": i * i}, nil
			}))
	}
	return jobs
}

func marshalResults(t *testing.T, res *RunResult, names []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, n := range names {
		if err := enc.Encode(res.Jobs[n].Value); err != nil {
			t.Fatalf("encode %s: %v", n, err)
		}
	}
	return buf.Bytes()
}

// TestCrashSweepJournalResumeByteIdentical is the -resume invariant under
// power cuts: record a full journaled, cached run, then from every crash
// prefix resume (or restart) the sweep and require the final results to be
// byte-identical to the uninterrupted reference run.
func TestCrashSweepJournalResumeByteIdentical(t *testing.T) {
	jobs := crashPlanJobs()
	names := make([]string, len(jobs))
	plan := KeyOf("crash-plan-hash")
	for i, j := range jobs {
		names[i] = j.Name
	}

	// Reference: a plain uninterrupted run.
	refRes, err := Run(context.Background(), crashPlanJobs(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	ref := marshalResults(t, refRes, names)

	// Recorded run: cache + journal through the recording seam.
	root := t.TempDir()
	fs := fsio.New(nil)
	rec := fsio.NewRecorder(root, true)
	fs.SetRecorder(rec)
	c, err := OpenCacheFS(root, fs)
	if err != nil {
		t.Fatalf("OpenCacheFS: %v", err)
	}
	jpath := filepath.Join(root, "journal.json")
	j, err := CreateJournal(jpath, plan, len(jobs), fs)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	if _, err := Run(context.Background(), crashPlanJobs(), Options{Workers: 1, Cache: c, Journal: j}); err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	if err := j.Complete(); err != nil {
		t.Fatalf("Complete: %v", err)
	}

	err = crashsim.RunOpts(rec.Ops(), t.TempDir(), func(dir string) error {
		cc, err := OpenCache(dir)
		if err != nil {
			return err
		}
		cc.SetLog(nil)
		jp := filepath.Join(dir, "journal.json")
		// Resume like vcoma-report -resume would; any unusable journal
		// (absent, empty, torn header) means starting fresh.
		rj, _, rerr := ResumeJournal(jp, plan, nil)
		if rerr != nil {
			if rj, rerr = CreateJournal(jp, plan, len(jobs), nil); rerr != nil {
				return rerr
			}
		}
		res, rerr := Run(context.Background(), crashPlanJobs(), Options{Workers: 1, Cache: cc, Journal: rj})
		if rerr != nil {
			return rerr
		}
		rj.Close()
		if got := marshalResults(t, res, names); !bytes.Equal(got, ref) {
			return fmt.Errorf("resumed results differ from reference:\n got %s\nwant %s", got, ref)
		}
		return nil
	}, crashsim.Options{Every: 2})
	if err != nil {
		t.Fatalf("crash sweep: %v", err)
	}
	_ = os.Remove(jpath) // recorded-run journal already removed by Complete
}
