package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"vcoma/internal/addr"
	"vcoma/internal/coherence"
	"vcoma/internal/network"
)

// Budget bounds a run. The zero value means unsupervised: the engine runs
// until the workload completes or deadlocks. Any non-zero field arms the
// watchdog, which aborts the run with a *WatchdogError carrying a full
// diagnostic Dump instead of letting a diverging simulation spin forever.
type Budget struct {
	// MaxCycles aborts the run when any processor's clock passes this many
	// simulated cycles.
	MaxCycles uint64 `json:"maxCycles,omitempty"`
	// MaxEvents aborts the run after this many retired events.
	MaxEvents uint64 `json:"maxEvents,omitempty"`
	// StallEvents aborts the run when this many events retire without any
	// processor's clock advancing — the no-forward-progress (livelock)
	// detector: events are being executed but simulated time stands still.
	StallEvents uint64 `json:"stallEvents,omitempty"`
}

// Zero reports whether no budget is armed.
func (b Budget) Zero() bool {
	return b.MaxCycles == 0 && b.MaxEvents == 0 && b.StallEvents == 0
}

// String renders the armed limits ("cycles≤1000000 events≤5000"), or "none".
func (b Budget) String() string {
	var parts []string
	if b.MaxCycles > 0 {
		parts = append(parts, fmt.Sprintf("cycles≤%d", b.MaxCycles))
	}
	if b.MaxEvents > 0 {
		parts = append(parts, fmt.Sprintf("events≤%d", b.MaxEvents))
	}
	if b.StallEvents > 0 {
		parts = append(parts, fmt.Sprintf("stall<%d", b.StallEvents))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// ProcDump is one processor's state at the moment the watchdog tripped.
type ProcDump struct {
	Proc  int    `json:"proc"`
	Clock uint64 `json:"clock"`
	// State is "running", "done", or "waiting" (blocked at a lock or
	// barrier; Blocked names which).
	State string `json:"state"`
	// Blocked names the synchronization object a waiting processor is
	// blocked on ("lock 3", "barrier 1").
	Blocked string `json:"blocked,omitempty"`
	Busy    uint64 `json:"busy"`
	Sync    uint64 `json:"sync"`
	Refs    uint64 `json:"refs"`
}

// LockDump is one lock's state: who holds it and how deep its queue is.
type LockDump struct {
	ID         int   `json:"id"`
	Owner      int   `json:"owner"`
	Held       bool  `json:"held"`
	QueueDepth int   `json:"queueDepth"`
	Queue      []int `json:"queue,omitempty"`
}

// BarrierDump is one barrier's state: who has arrived and who is missing.
type BarrierDump struct {
	ID      int   `json:"id"`
	Arrived []int `json:"arrived"`
	Missing int   `json:"missing"`
}

// NodeDump is one node's memory-system activity at the trip point.
type NodeDump struct {
	Node        int    `json:"node"`
	Refs        uint64 `json:"refs"`
	Remote      uint64 `json:"remote"`
	StallLocal  uint64 `json:"stallLocal"`
	StallRemote uint64 `json:"stallRemote"`
	TransCycles uint64 `json:"transCycles"`
	TLBMisses   uint64 `json:"tlbMisses"`
}

// Dump is the watchdog's structured diagnostic: everything needed to see
// why a run stopped making progress, serializable as JSON and renderable as
// text. Wall-clock readings are deliberately excluded so the render of a
// given simulation state is byte-stable (golden-testable).
type Dump struct {
	Reason string `json:"reason"`
	Budget Budget `json:"budget"`
	// Cycle is the largest processor clock reached.
	Cycle uint64 `json:"cycle"`
	// Events is the number of retired events.
	Events uint64 `json:"events"`
	// StallWindow is the number of events retired since any clock last
	// advanced (the livelock window at the trip point).
	StallWindow uint64          `json:"stallWindow"`
	Procs       []ProcDump      `json:"procs"`
	Locks       []LockDump      `json:"locks,omitempty"`
	Barriers    []BarrierDump   `json:"barriers,omitempty"`
	Nodes       []NodeDump      `json:"nodes,omitempty"`
	Protocol    coherence.Stats `json:"protocol"`
	Network     network.Stats   `json:"network"`
}

// Render formats the dump as an indented text block for terminals and logs.
func (d *Dump) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "watchdog: %s\n", d.Reason)
	fmt.Fprintf(&b, "  budget: %v\n", d.Budget)
	fmt.Fprintf(&b, "  at cycle %d after %d events (%d events since last clock advance)\n",
		d.Cycle, d.Events, d.StallWindow)
	running, done, waiting := 0, 0, 0
	for _, p := range d.Procs {
		switch p.State {
		case "done":
			done++
		case "waiting":
			waiting++
		default:
			running++
		}
	}
	fmt.Fprintf(&b, "  processors: %d running, %d waiting, %d done\n", running, waiting, done)
	for _, p := range d.Procs {
		line := fmt.Sprintf("    proc %2d  clock=%-10d %-8s", p.Proc, p.Clock, p.State)
		if p.Blocked != "" {
			line += " on " + p.Blocked
		}
		fmt.Fprintf(&b, "%s  busy=%d sync=%d refs=%d\n", line, p.Busy, p.Sync, p.Refs)
	}
	if len(d.Locks) > 0 {
		b.WriteString("  locks:\n")
		for _, l := range d.Locks {
			if l.Held {
				fmt.Fprintf(&b, "    lock %d held by proc %d, %d queued %v\n", l.ID, l.Owner, l.QueueDepth, l.Queue)
			} else {
				fmt.Fprintf(&b, "    lock %d free, %d queued %v\n", l.ID, l.QueueDepth, l.Queue)
			}
		}
	}
	if len(d.Barriers) > 0 {
		b.WriteString("  barriers:\n")
		for _, br := range d.Barriers {
			fmt.Fprintf(&b, "    barrier %d: %d arrived %v, waiting for %d more\n",
				br.ID, len(br.Arrived), br.Arrived, br.Missing)
		}
	}
	if len(d.Nodes) > 0 {
		b.WriteString("  per-node memory system (refs / remote / trans-cycles / tlb-misses):\n")
		for _, n := range d.Nodes {
			fmt.Fprintf(&b, "    node %2d  %d / %d / %d / %d\n",
				n.Node, n.Refs, n.Remote, n.TransCycles, n.TLBMisses)
		}
	}
	fmt.Fprintf(&b, "  protocol: %d remote reads, %d upgrades, %d write fetches, %d invalidations, %d injections, %d swaps\n",
		d.Protocol.RemoteReads, d.Protocol.Upgrades, d.Protocol.WriteFetches,
		d.Protocol.Invalidations, d.Protocol.Injections, d.Protocol.Swaps)
	fmt.Fprintf(&b, "  network: %d requests, %d blocks, %d queue cycles\n",
		d.Network.Requests, d.Network.Blocks, d.Network.QueueCycles)
	return b.String()
}

// WatchdogError is the structured abort the watchdog raises when a budget
// is exceeded, carrying the diagnostic dump.
type WatchdogError struct {
	Dump *Dump
}

// Error returns a one-line summary; the full diagnostic is in Dump.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: %s (cycle %d, %d events)", e.Dump.Reason, e.Dump.Cycle, e.Dump.Events)
}

// SetBudget arms the watchdog. Call before Run; a zero budget disarms it.
func (e *Engine) SetBudget(b Budget) { e.budget = b }

// SetContext bounds the run by ctx: the engine polls it periodically and
// aborts with ctx's error when it is cancelled or past its deadline. The
// deadline abort carries a *WatchdogError diagnostic like any budget trip.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// ctxCheckPeriod is how many events pass between context polls;
// clock/event budgets are checked every step.
const ctxCheckPeriod = 4096

// checkBudget enforces the armed budget after each step. It returns a
// non-nil error exactly when the run must abort.
func (e *Engine) checkBudget() error {
	b := e.budget
	if e.maxClock > e.lastClock {
		e.lastClock = e.maxClock
		e.eventsAtAdvance = e.events
	}
	if b.Zero() && e.ctx == nil {
		return nil
	}
	if b.MaxCycles > 0 && e.maxClock > b.MaxCycles {
		return e.trip(fmt.Sprintf("cycle budget exceeded (%d > %d simulated cycles)", e.maxClock, b.MaxCycles))
	}
	if b.MaxEvents > 0 && e.events > b.MaxEvents {
		return e.trip(fmt.Sprintf("event budget exceeded (%d > %d retired events)", e.events, b.MaxEvents))
	}
	if b.StallEvents > 0 && e.events-e.eventsAtAdvance >= b.StallEvents {
		return e.trip(fmt.Sprintf("no forward progress: %d events retired without any processor clock advancing past %d",
			e.events-e.eventsAtAdvance, e.maxClock))
	}
	if e.ctx != nil && e.events%ctxCheckPeriod == 0 {
		if err := e.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return e.trip("context deadline exceeded")
			}
			return err
		}
	}
	return nil
}

// trip builds the diagnostic dump and wraps it in a WatchdogError.
func (e *Engine) trip(reason string) error {
	e.tripCounter.Inc()
	return &WatchdogError{Dump: e.dump(reason)}
}

// dump snapshots the engine, machine, protocol and network state.
func (e *Engine) dump(reason string) *Dump {
	d := &Dump{
		Reason:      reason,
		Budget:      e.budget,
		Cycle:       e.maxClock,
		Events:      e.events,
		StallWindow: e.events - e.eventsAtAdvance,
	}

	// Which synchronization object is each waiting processor blocked on?
	// eachLock/eachBarrier iterate the dense tables in ID order (overflow
	// IDs, sorted, follow) and skip untouched entries.
	blockedOn := make(map[int]string)
	e.eachLock(func(id int, l *lockState) {
		ld := LockDump{ID: id, Held: l.held, Owner: int(l.owner), QueueDepth: l.queueLen()}
		for k := l.qhead; k < len(l.queue); k++ {
			p := int(l.queue[k].proc)
			blockedOn[p] = fmt.Sprintf("lock %d", id)
			ld.Queue = append(ld.Queue, p)
		}
		if !l.held {
			ld.Owner = -1
		}
		d.Locks = append(d.Locks, ld)
	})
	e.eachBarrier(func(id int, br *barrierState) {
		arrived := make([]int, 0, len(br.arrived))
		for _, p := range br.arrived {
			blockedOn[int(p)] = fmt.Sprintf("barrier %d", id)
			arrived = append(arrived, int(p))
		}
		d.Barriers = append(d.Barriers, BarrierDump{
			ID:      id,
			Arrived: arrived,
			Missing: len(e.procs) - len(br.arrived),
		})
	})

	for i := range e.procs {
		p := &e.procs[i]
		pd := ProcDump{
			Proc: i, Clock: p.clock, State: "running",
			Busy: p.stats.Busy, Sync: p.stats.Sync, Refs: p.stats.Refs,
		}
		switch {
		case p.done:
			pd.State = "done"
		case p.waiting:
			pd.State = "waiting"
			pd.Blocked = blockedOn[i]
		}
		d.Procs = append(d.Procs, pd)
	}

	for n := 0; n < e.m.Geometry().Nodes(); n++ {
		st := e.m.NodeStats(addr.Node(n))
		d.Nodes = append(d.Nodes, NodeDump{
			Node: n, Refs: st.Refs, Remote: st.Remote,
			StallLocal: st.StallLocal, StallRemote: st.StallRemote,
			TransCycles: st.TransCycles, TLBMisses: st.TLBMisses,
		})
	}
	d.Protocol = e.m.Protocol().Stats()
	d.Network = e.m.Protocol().Fabric().Stats()
	return d
}
