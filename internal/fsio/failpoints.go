package fsio

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// ErrPowerCut is the error every op returns once a powercut failpoint has
// tripped: from that op on, the "machine" is off and nothing reaches disk.
// It unwraps to syscall.EIO, which is what a dying disk controller reports.
var ErrPowerCut = fmt.Errorf("power cut: %w", syscall.EIO)

// A rule is one failpoint: inject kind when the Nth..Mth operation matching
// match (an op name, a tag, or "*") comes through.
type rule struct {
	kind  string // "enospc" | "eio" | "torn" | "powercut"
	match string
	from  int // 1-based count window over matching ops; 0 = every op
	to    int // inclusive; 0 with from==0 means "*"
	tear  int // torn: bytes that land before the failure

	seen int // matching ops observed so far (guarded by Failpoints.mu)
}

func (r *rule) matches(op, tag string) bool {
	return r.match == "*" || r.match == op || r.match == tag
}

func (r *rule) window(n int) bool {
	if r.from == 0 {
		return true // "*"
	}
	return n >= r.from && n <= r.to
}

// Failpoints is a parsed `-fsfault` spec: an ordered rule list plus the
// power-cut trip state. One instance is shared by every op on an FS; its
// counters advance under a mutex so injection points are deterministic even
// under concurrent writers (the ops race, but each sees a unique count).
type Failpoints struct {
	mu    sync.Mutex
	rules []*rule
	spec  string

	cutAfter int // powercut: trip after this many total ops (0 = no powercut)
	totalOps int
	cut      bool
}

// ParseFailpoints parses a comma-separated failpoint spec, mirroring the
// chaos-spec grammar:
//
//	enospc:<match>:<count>   ENOSPC on the <count>'th op matching <match>
//	eio:<match>:<count>      EIO likewise
//	torn:<match>:<bytes>     first matching write/append lands only <bytes>
//	                         bytes, then fails with EIO
//	powercut:<n>             after <n> total ops, every op fails (power off)
//
// <match> is an op name (create, open, write, fsync, rename, fsyncdir,
// append, remove, removeall, mkdir, read), a caller tag (put, journal,
// trace, probe, ...), or `*`. <count> is `N`, `*` (every matching op), or `N-M`
// (an inclusive 1-based window). The first rule that triggers wins.
func ParseFailpoints(spec string) (*Failpoints, error) {
	fp := &Failpoints{spec: spec}
	if strings.TrimSpace(spec) == "" {
		return fp, nil
	}
	bad := func(part, why string) error {
		return fmt.Errorf("fsfault %q: %s", part, why)
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		switch fields[0] {
		case "enospc", "eio":
			if len(fields) != 3 {
				return nil, bad(part, "want kind:match:count")
			}
			from, to, err := parseCount(fields[2])
			if err != nil {
				return nil, bad(part, err.Error())
			}
			fp.rules = append(fp.rules, &rule{kind: fields[0], match: fields[1], from: from, to: to})
		case "torn":
			if len(fields) != 3 {
				return nil, bad(part, "want torn:match:bytes")
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, bad(part, "bytes must be a non-negative integer")
			}
			// A torn rule fires once, on the first matching write.
			fp.rules = append(fp.rules, &rule{kind: "torn", match: fields[1], from: 1, to: 1, tear: n})
		case "powercut":
			if len(fields) != 2 {
				return nil, bad(part, "want powercut:n")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n == math.MaxInt {
				return nil, bad(part, "n must be a non-negative integer below the int maximum")
			}
			fp.cutAfter = n + 1 // trip on op n+1
		default:
			return nil, bad(part, "unknown kind (want enospc, eio, torn, powercut)")
		}
	}
	return fp, nil
}

// MustFailpoints is ParseFailpoints for tests and wired-in specs.
func MustFailpoints(spec string) *Failpoints {
	fp, err := ParseFailpoints(spec)
	if err != nil {
		panic(err)
	}
	return fp
}

func parseCount(s string) (from, to int, err error) {
	if s == "*" {
		return 0, 0, nil
	}
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		f, err1 := strconv.Atoi(lo)
		t, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || f < 1 || t < f {
			return 0, 0, fmt.Errorf("count window must be N-M with 1 <= N <= M")
		}
		return f, t, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, 0, fmt.Errorf("count must be a positive integer, `*`, or N-M")
	}
	return n, n, nil
}

// String re-renders the spec the Failpoints were parsed from.
func (fp *Failpoints) String() string {
	if fp == nil {
		return ""
	}
	return fp.spec
}

// gate decides the fate of one operation. tear < 0 means "not torn".
func (fp *Failpoints) gate(op, tag string) (tear int, err error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.totalOps++
	if fp.cut || (fp.cutAfter > 0 && fp.totalOps >= fp.cutAfter) {
		fp.cut = true
		return -1, ErrPowerCut
	}
	for _, r := range fp.rules {
		if !r.matches(op, tag) {
			continue
		}
		r.seen++
		if !r.window(r.seen) {
			continue
		}
		switch r.kind {
		case "enospc":
			return -1, syscall.ENOSPC
		case "eio":
			return -1, syscall.EIO
		case "torn":
			if op == OpWrite || op == OpAppend {
				return r.tear, syscall.EIO
			}
			r.seen-- // only writes tear; don't burn the window on others
		}
	}
	return -1, nil
}
