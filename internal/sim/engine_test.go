package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/machine"
	"vcoma/internal/trace"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(config.SmallTest())
	if err != nil {
		t.Fatal(err)
	}
	// Preload a working range so accesses resolve.
	g := m.Geometry()
	m.VM().Preload(0x10000, 8*1024)
	for off := uint64(0); off < 8*1024; off += g.AMBlockSize() {
		va := g.Block(addr.Virtual(0x10000 + off))
		m.Protocol().Preload(uint64(m.VM().Translate(va)), m.VM().PlacementNode(va))
	}
	return m
}

func streams(events ...[]trace.Event) []trace.Stream {
	out := make([]trace.Stream, len(events))
	for i, evs := range events {
		out[i] = trace.NewSliceStream(evs)
	}
	return out
}

func run(t *testing.T, m *machine.Machine, ss []trace.Stream) Result {
	t.Helper()
	e, err := New(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStreamCountValidation(t *testing.T) {
	m := newMachine(t)
	if _, err := New(m, streams(nil, nil)); err == nil {
		t.Fatal("wrong stream count accepted")
	}
}

func TestComputeAccountsBusy(t *testing.T) {
	m := newMachine(t)
	ss := streams(
		[]trace.Event{trace.MakeCompute(123)},
		nil, nil, nil,
	)
	res := run(t, m, ss)
	if res.Procs[0].Busy != 123 || res.Procs[0].Finish != 123 {
		t.Fatalf("proc 0: %+v", res.Procs[0])
	}
	if res.ExecTime != 123 {
		t.Fatalf("exec time %d", res.ExecTime)
	}
	if res.Events != 1 {
		t.Fatalf("events %d", res.Events)
	}
}

func TestMemoryRefsStallAndCount(t *testing.T) {
	m := newMachine(t)
	ss := streams(
		[]trace.Event{
			trace.MakeRead(0x10000),
			trace.MakeRead(0x10000), // FLC hit
			trace.MakeWrite(0x10100),
		},
		nil, nil, nil,
	)
	res := run(t, m, ss)
	p := res.Procs[0]
	if p.Refs != 3 {
		t.Fatalf("refs %d", p.Refs)
	}
	if p.StallLocal+p.StallRemote+p.Trans == 0 {
		t.Fatal("no stall recorded for cold accesses")
	}
	if got := p.Total(); got != p.Finish {
		t.Fatalf("breakdown sum %d != finish %d", got, p.Finish)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	m := newMachine(t)
	ss := streams(
		[]trace.Event{trace.MakeCompute(1000), trace.MakeBarrier(0)},
		[]trace.Event{trace.MakeBarrier(0)},
		[]trace.Event{trace.MakeCompute(50), trace.MakeBarrier(0)},
		[]trace.Event{trace.MakeBarrier(0)},
	)
	res := run(t, m, ss)
	// Everyone finishes at or after the slowest arrival.
	for i, p := range res.Procs {
		if p.Finish < 1000 {
			t.Fatalf("proc %d finished at %d, before the slowest barrier arrival", i, p.Finish)
		}
	}
	// The fast processors accumulated sync time.
	if res.Procs[1].Sync == 0 || res.Procs[3].Sync == 0 {
		t.Fatal("waiters recorded no sync time")
	}
	if res.Procs[0].Sync >= res.Procs[1].Sync {
		t.Fatal("the slowest arrival should wait the least")
	}
}

func TestLockMutualExclusionAndQueueing(t *testing.T) {
	m := newMachine(t)
	// All four processors take the same lock around a compute section.
	evs := func(pre uint64) []trace.Event {
		return []trace.Event{
			trace.MakeCompute(pre),
			trace.MakeLock(5),
			trace.MakeCompute(100),
			trace.MakeUnlock(5),
		}
	}
	res := run(t, m, streams(evs(0), evs(1), evs(2), evs(3)))
	// Critical sections cannot overlap: total span >= 4 * 100.
	if res.ExecTime < 400 {
		t.Fatalf("exec %d: critical sections overlapped", res.ExecTime)
	}
	var totalSync uint64
	for _, p := range res.Procs {
		totalSync += p.Sync
	}
	if totalSync == 0 {
		t.Fatal("no lock sync time recorded")
	}
}

func TestUnlockWithoutLockFails(t *testing.T) {
	m := newMachine(t)
	e, err := New(m, streams(
		[]trace.Event{trace.MakeUnlock(1)},
		nil, nil, nil,
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "releases lock") {
		t.Fatalf("bad release not detected: %v", err)
	}
}

func TestUnbalancedBarrierDeadlocks(t *testing.T) {
	m := newMachine(t)
	e, err := New(m, streams(
		[]trace.Event{trace.MakeBarrier(0)},
		[]trace.Event{trace.MakeBarrier(0)},
		[]trace.Event{trace.MakeBarrier(0)},
		nil, // proc 3 never arrives
	))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not detected: %v", err)
	}
	// Proc 3's empty stream finishes; the three barrier arrivals must be
	// classified as barrier waiters, not lock waiters.
	if want := "1 done, 3 waiting (0 at locks, 3 at barriers) of 4"; !strings.Contains(err.Error(), want) {
		t.Fatalf("waiter classification wrong: %v (want %q)", err, want)
	}
}

func TestLockNeverGrantedTwice(t *testing.T) {
	m := newMachine(t)
	e, err := New(m, streams(
		[]trace.Event{trace.MakeLock(9)},
		[]trace.Event{trace.MakeLock(9)}, // blocks forever
		nil, nil,
	))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil {
		t.Fatal("lock held at end with a waiter should deadlock")
	}
	// Proc 0 finishes still holding the lock; proc 1 is the only waiter and
	// is queued at the lock, not a barrier.
	if want := "3 done, 1 waiting (1 at locks, 0 at barriers) of 4"; !strings.Contains(err.Error(), want) {
		t.Fatalf("waiter classification wrong: %v (want %q)", err, want)
	}
}

func TestDeadlockClassifiesMixedWaiters(t *testing.T) {
	m := newMachine(t)
	// Proc 0 takes the lock and parks at a barrier that never fills; proc 1
	// queues behind the lock; proc 2 joins the barrier; proc 3 exits. The
	// diagnostic must split the three waiters as one lock waiter and two
	// barrier waiters (the seed code counted all three as lock waiters AND
	// reported the barrier arrivals on top).
	e, err := New(m, streams(
		[]trace.Event{trace.MakeLock(1), trace.MakeBarrier(0)},
		[]trace.Event{trace.MakeLock(1)},
		[]trace.Event{trace.MakeBarrier(0)},
		nil,
	))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not detected: %v", err)
	}
	if want := "1 done, 3 waiting (1 at locks, 2 at barriers) of 4"; !strings.Contains(err.Error(), want) {
		t.Fatalf("waiter classification wrong: %v (want %q)", err, want)
	}
}

// TestMaxClockSeesLockGrant pins the watchdog-staleness fix: a lock grant
// advances the *granted* processor's clock past everything the executing
// processor ever reaches, and if the grantee retires no further events the
// seed engine never folded that advance into maxClock — the livelock
// detector and the sim/watchdog/maxClock probe ran on stale progress.
func TestMaxClockSeesLockGrant(t *testing.T) {
	m := newMachine(t)
	e, err := New(m, streams(
		[]trace.Event{
			trace.MakeLock(7),
			trace.MakeCompute(500),
			trace.MakeUnlock(7),
		},
		// Proc 1 blocks on the lock and finishes the moment it is granted:
		// the grant is the last advance of its clock, and it is performed by
		// proc 0's release step.
		[]trace.Event{trace.MakeLock(7)},
		nil, nil,
	))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[1].Finish <= res.Procs[0].Finish {
		t.Fatalf("test premise broken: grantee should finish last (%d vs %d)",
			res.Procs[1].Finish, res.Procs[0].Finish)
	}
	if e.maxClock != res.ExecTime {
		t.Fatalf("maxClock %d stale after lock grant: execution reached %d", e.maxClock, res.ExecTime)
	}
}

// TestMaxClockSeesBarrierRelease is the barrier-side twin: the release loop
// rewrites every arrived processor's clock, and maxClock must track the
// largest staggered restart even when no released processor executes again.
func TestMaxClockSeesBarrierRelease(t *testing.T) {
	m := newMachine(t)
	var evs [][]trace.Event
	for p := 0; p < 4; p++ {
		evs = append(evs, []trace.Event{trace.MakeBarrier(0)})
	}
	e, err := New(m, streams(evs...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if e.maxClock != res.ExecTime {
		t.Fatalf("maxClock %d stale after barrier release: execution reached %d", e.maxClock, res.ExecTime)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() (*machine.Machine, []trace.Stream) {
		m := newMachine(t)
		var ss []trace.Stream
		for p := 0; p < 4; p++ {
			p := p
			ss = append(ss, trace.NewGenerator(func(e *trace.Emitter) {
				for i := 0; i < 500; i++ {
					e.Read(addr.Virtual(0x10000 + (i*13+p*7)%4096))
					if i%5 == 0 {
						e.Write(addr.Virtual(0x10000 + (i*29)%4096))
					}
					if i%100 == 0 {
						e.Barrier(i / 100)
					}
				}
			}))
		}
		return m, ss
	}
	m1, s1 := build()
	m2, s2 := build()
	r1 := run(t, m1, s1)
	r2 := run(t, m2, s2)
	if r1.ExecTime != r2.ExecTime || r1.Events != r2.Events {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", r1.ExecTime, r1.Events, r2.ExecTime, r2.Events)
	}
	for i := range r1.Procs {
		if r1.Procs[i] != r2.Procs[i] {
			t.Fatalf("proc %d diverged: %+v vs %+v", i, r1.Procs[i], r2.Procs[i])
		}
	}
}

func TestTotalProc(t *testing.T) {
	m := newMachine(t)
	res := run(t, m, streams(
		[]trace.Event{trace.MakeCompute(10)},
		[]trace.Event{trace.MakeCompute(30)},
		nil, nil,
	))
	tot := res.TotalProc()
	if tot.Busy != 40 || tot.Finish != 30 {
		t.Fatalf("total %+v", tot)
	}
}

func TestLockGrantsAreFIFO(t *testing.T) {
	m := newMachine(t)
	// Proc 0 takes the lock; procs 1..3 arrive in a known order (their
	// compute prefixes stagger the arrivals); grants must follow arrival
	// order.
	evs := func(pre uint64) []trace.Event {
		return []trace.Event{
			trace.MakeCompute(pre),
			trace.MakeLock(1),
			trace.MakeCompute(10),
			trace.MakeUnlock(1),
		}
	}
	res := run(t, m, streams(evs(0), evs(100), evs(200), evs(300)))
	// Completion order == arrival order: finish times strictly increase.
	for i := 1; i < 4; i++ {
		if res.Procs[i].Finish <= res.Procs[i-1].Finish {
			t.Fatalf("proc %d finished at %d, before proc %d at %d — not FIFO",
				i, res.Procs[i].Finish, i-1, res.Procs[i-1].Finish)
		}
	}
}

func TestBarrierReleaseStagger(t *testing.T) {
	m := newMachine(t)
	var evs [][]trace.Event
	for p := 0; p < 4; p++ {
		evs = append(evs, []trace.Event{trace.MakeBarrier(0)})
	}
	res := run(t, m, streams(evs...))
	finishes := map[uint64]bool{}
	for _, p := range res.Procs {
		finishes[p.Finish] = true
	}
	if len(finishes) < 2 {
		t.Fatal("all processors released at the same cycle: no stagger")
	}
}

func TestEngineRunsGeneratorStreams(t *testing.T) {
	m := newMachine(t)
	var ss []trace.Stream
	for p := 0; p < 4; p++ {
		ss = append(ss, trace.NewGenerator(func(e *trace.Emitter) {
			for i := 0; i < 100; i++ {
				e.Read(addr.Virtual(0x10000 + i*16))
			}
			e.Barrier(0)
		}))
	}
	res := run(t, m, ss)
	if res.Events != 4*101 {
		t.Fatalf("events %d", res.Events)
	}
}

// TestLockQueueRingWraparound exercises lockState's ring buffer directly:
// FIFO order must survive qhead resets in both push (append after full
// drain) and pop (drain to empty mid-stream), across several cycles.
func TestLockQueueRingWraparound(t *testing.T) {
	var l lockState
	next := int32(0)
	expect := int32(0)
	push := func(n int) {
		for k := 0; k < n; k++ {
			l.push(next, uint64(next))
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			w := l.pop()
			if w.proc != expect || w.arrived != uint64(expect) {
				t.Fatalf("pop: got proc %d arrived %d, want %d", w.proc, w.arrived, expect)
			}
			expect++
		}
	}
	push(3)
	pop(2)  // qhead=2, len=3
	push(4) // grows past the head
	pop(5)  // drains to empty: qhead reset in pop
	if l.queueLen() != 0 {
		t.Fatalf("queue should be empty, len %d", l.queueLen())
	}
	push(2) // push after reset reuses the backing array
	pop(1)
	pop(1) // qhead == len again
	for cycle := 0; cycle < 50; cycle++ {
		push(1 + cycle%4)
		pop(1 + cycle%4)
	}
	if l.queueLen() != 0 || l.qhead != 0 {
		t.Fatalf("ring did not reset: len %d qhead %d", l.queueLen(), l.qhead)
	}
}

// TestSyncIDOverflowTables drives lock and barrier IDs outside the dense
// tables — at, above, and below the maxDenseSyncID bound, including
// negative — through a real contended run.
func TestSyncIDOverflowTables(t *testing.T) {
	ids := []int{0, maxDenseSyncID - 1, maxDenseSyncID, maxDenseSyncID + 17, 1 << 20, -1, -99}
	events := make([][]trace.Event, 4)
	for p := range events {
		var evs []trace.Event
		for _, id := range ids {
			evs = append(evs,
				trace.MakeCompute(uint64(1+p)),
				trace.MakeLock(id),
				trace.MakeCompute(5),
				trace.MakeUnlock(id),
				trace.MakeBarrier(id),
			)
		}
		events[p] = evs
	}
	want := run(t, newMachine(t), streams(events...))
	if want.ExecTime == 0 {
		t.Fatal("overflow-ID run did not execute")
	}
	for _, p := range want.Procs {
		if p.Sync == 0 {
			t.Fatalf("no sync time recorded under contention: %+v", p)
		}
	}
}

// TestPackSchedKeyOverflowPanics pins the 48-bit packed-clock guard: a clock
// at the key boundary must panic loudly rather than misorder the schedule.
func TestPackSchedKeyOverflowPanics(t *testing.T) {
	if k := packSchedKey(1<<48-1, 7); k>>schedIndexBits != 1<<48-1 {
		t.Fatalf("key %x lost clock bits", k)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("packSchedKey accepted a clock beyond 48 bits")
		}
	}()
	packSchedKey(1<<48, 0)
}

// TestSyncTablesListEverySyncObject pins what the deadlock error and the
// watchdog dump report when lock and barrier IDs grow the dense tables out
// of order (high IDs first, as BARNES and RAYTRACE number theirs) and spill
// into the overflow maps: every held or queued lock and every barrier
// holding arrivals, dense IDs ascending then overflow IDs ascending, and
// nothing that was used and let go.
func TestSyncTablesListEverySyncObject(t *testing.T) {
	m := newMachine(t)
	e, err := New(m, streams(
		[]trace.Event{trace.MakeBarrier(0),
			trace.MakeLock(5000), trace.MakeLock(3), trace.MakeLock(maxDenseSyncID), trace.MakeLock(-7),
			trace.MakeBarrier(1000)},
		[]trace.Event{trace.MakeBarrier(0), trace.MakeCompute(1000),
			trace.MakeLock(1000), trace.MakeLock(maxDenseSyncID - 1), trace.MakeLock(5000)},
		[]trace.Event{trace.MakeBarrier(0),
			trace.MakeLock(4000), trace.MakeUnlock(4000), trace.MakeBarrier(2)},
		[]trace.Event{trace.MakeBarrier(0),
			trace.MakeLock(1 << 20), trace.MakeBarrier(maxDenseSyncID + 5)},
	))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if want := "0 done, 4 waiting (1 at locks, 3 at barriers) of 4"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("deadlock error %v, want %q", err, want)
	}
	d := e.dump("test")
	var locks, barriers []string
	for _, l := range d.Locks {
		locks = append(locks, fmt.Sprintf("%d:%d%v", l.ID, l.Owner, l.Queue))
	}
	for _, b := range d.Barriers {
		barriers = append(barriers, fmt.Sprintf("%d:%v", b.ID, b.Arrived))
	}
	wantLocks := []string{"3:0[]", "1000:1[]", "5000:0[1]", "65535:1[]", "-7:0[]", "65536:0[]", "1048576:3[]"}
	wantBarriers := []string{"2:[2]", "1000:[0]", "65541:[3]"}
	if !slices.Equal(locks, wantLocks) || !slices.Equal(barriers, wantBarriers) {
		t.Fatalf("dump lists locks %v and barriers %v; want %v and %v", locks, barriers, wantLocks, wantBarriers)
	}
}
