package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// req builds a wire request for one cell; scheme and seed vary the key.
func req(scheme string, seed uint64) Request {
	return Request{Bench: "RADIX", Scheme: scheme, Scale: "test", Seed: seed}
}

func mustSpec(t *testing.T, r Request) Spec {
	t.Helper()
	spec, err := r.Resolve()
	if err != nil {
		t.Fatalf("Resolve(%+v): %v", r, err)
	}
	return spec
}

func TestRequestKeyDistinguishesSchemes(t *testing.T) {
	a := mustSpec(t, req("l0", 0))
	c := mustSpec(t, req("l1", 0))
	if a.Key() == c.Key() {
		t.Fatalf("different schemes share a key")
	}
}

func TestSubmitCoalescesEqualKeys(t *testing.T) {
	q := NewQueue(8)
	j1, w1, out1, err := q.Submit(mustSpec(t, req("l0", 0)))
	if err != nil || out1 != OutcomeQueued {
		t.Fatalf("first submit: %v %v", out1, err)
	}
	j2, w2, out2, err := q.Submit(mustSpec(t, req("l0", 0)))
	if err != nil || out2 != OutcomeCoalesced {
		t.Fatalf("second submit: %v %v", out2, err)
	}
	if j1 != j2 {
		t.Fatalf("coalesced submits produced distinct jobs")
	}
	if w1 == "" || w2 == "" || w1 == w2 {
		t.Fatalf("waiter ids not distinct: %q %q", w1, w2)
	}
	if st := q.Snapshot(); st.Queued != 1 || st.Coalesced != 1 {
		t.Fatalf("snapshot after coalesce: %+v", st)
	}
	if s := j1.Snapshot(); s.Waiters != 2 {
		t.Fatalf("waiters=%d, want 2", s.Waiters)
	}
}

func TestQueueFullRejects(t *testing.T) {
	q := NewQueue(2)
	for i := uint64(1); i <= 2; i++ {
		if _, _, _, err := q.Submit(mustSpec(t, req("l0", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, _, _, err := q.Submit(mustSpec(t, req("l0", 3)))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow submit: got %v, want ErrOverloaded", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	q := NewQueue(8)
	j, w, _, err := q.Submit(mustSpec(t, req("l0", 0)))
	if err != nil {
		t.Fatal(err)
	}
	if got, removed, withdrew := q.Cancel(j.Key, w); got != j || !removed || !withdrew {
		t.Fatalf("cancel with own waiter id: job=%v removed=%v withdrew=%v", got != nil, removed, withdrew)
	}
	if j.State() != StateCanceled {
		t.Fatalf("state %v, want canceled", j.State())
	}
	// A repeated cancel finds the terminal job but withdraws nothing, so
	// the server journals the cancellation exactly once.
	if got, removed, withdrew := q.Cancel(j.Key, w); got != j || !removed || withdrew {
		t.Fatalf("repeated cancel: job=%v removed=%v withdrew=%v", got != nil, removed, withdrew)
	}
	if st := q.Snapshot(); st.Queued != 0 {
		t.Fatalf("queue still holds %d after cancel", st.Queued)
	}
	// The canceled job must never be dispatched.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if got, err := q.Next(ctx); err == nil {
		t.Fatalf("Next returned canceled job %s", got.Key)
	}
	// Its record survives in retention for status queries.
	if _, ok := q.Get(j.Key); !ok {
		t.Fatalf("canceled job dropped from retention")
	}
}

func TestCancelOnlyLastWaiterWithdraws(t *testing.T) {
	q := NewQueue(8)
	j, w1, _, _ := q.Submit(mustSpec(t, req("l0", 0)))
	_, w2, _, _ := q.Submit(mustSpec(t, req("l0", 0))) // coalesce
	if got, removed, withdrew := q.Cancel(j.Key, w1); got != j || !removed || withdrew || j.State() != StateQueued {
		t.Fatalf("first cancel should only drop one waiter (state %v)", j.State())
	}
	// Replaying a spent token (or guessing one) must not drain other
	// clients' waiters: the key is shared, the token is not.
	if got, removed, _ := q.Cancel(j.Key, w1); got != j || removed {
		t.Fatalf("spent waiter id still cancels: job=%v removed=%v", got != nil, removed)
	}
	if got, removed, _ := q.Cancel(j.Key, "not-a-waiter"); got != j || removed {
		t.Fatalf("bogus waiter id cancels: job=%v removed=%v", got != nil, removed)
	}
	if j.State() != StateQueued {
		t.Fatalf("unauthorized cancels changed state to %v", j.State())
	}
	if got, removed, withdrew := q.Cancel(j.Key, w2); got != j || !removed || !withdrew || j.State() != StateCanceled {
		t.Fatalf("second cancel should withdraw the job (state %v)", j.State())
	}
}

func TestCancelRunningJobFiresContext(t *testing.T) {
	q := NewQueue(8)
	j, w, _, _ := q.Submit(mustSpec(t, req("l0", 0)))
	got, err := q.Next(context.Background())
	if err != nil || got != j {
		t.Fatalf("Next: %v %v", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.bindCancel(cancel)
	// A running job is not withdrawn here: its worker retires it.
	if got, removed, withdrew := q.Cancel(j.Key, w); got != j || !removed || withdrew {
		t.Fatalf("cancel with own waiter id: job=%v removed=%v withdrew=%v", got != nil, removed, withdrew)
	}
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatalf("cancel did not fire the running job's context")
	}
	q.Finish(j, context.Canceled)
	if j.State() != StateCanceled {
		t.Fatalf("state %v, want canceled", j.State())
	}
}

func TestFIFODispatchOrder(t *testing.T) {
	q := NewQueue(16)
	var want []*Job
	var skip *Job
	var skipWaiter string
	for i := uint64(1); i <= 4; i++ {
		j, w, _, err := q.Submit(mustSpec(t, req("l0", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			skip, skipWaiter = j, w
			continue
		}
		want = append(want, j)
	}
	// A job withdrawn while queued leaves the line without disturbing it.
	if _, removed, withdrew := q.Cancel(skip.Key, skipWaiter); !removed || !withdrew {
		t.Fatalf("cancel of a queued job: removed=%v withdrew=%v", removed, withdrew)
	}
	for i, w := range want {
		j, err := q.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if j != w {
			t.Fatalf("dispatch %d: got seed %d, want seed %d", i, j.Spec.Config.Seed, w.Spec.Config.Seed)
		}
	}
	if st := q.Snapshot(); st.Queued != 0 || st.Running != 3 {
		t.Fatalf("snapshot after draining the FIFO: %+v", st)
	}
}

func TestRequeueAfterDrain(t *testing.T) {
	q := NewQueue(8)
	j, _, _, _ := q.Submit(mustSpec(t, req("l0", 0)))
	if _, err := q.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	q.Requeue(j)
	if j.State() != StateQueued {
		t.Fatalf("state %v after requeue, want queued", j.State())
	}
	got, err := q.Next(context.Background())
	if err != nil || got != j {
		t.Fatalf("requeued job not redispatched")
	}
}
