package fsio

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseFailpoints parses arbitrary -fsfault specs. Parsing must never
// panic, and a spec that parses must arm every rule it names: one rule per
// enospc/eio/torn part, in order, with a well-formed count window, and a
// powercut whose trip point is the op after the named count. The committed
// corpus holds a powercut count whose trip point overflows an int.
//
// Run natively:  go test -run=^$ -fuzz=FuzzParseFailpoints ./internal/fsio/
func FuzzParseFailpoints(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		fp, err := ParseFailpoints(spec)
		if err != nil {
			return
		}
		var kinds []string
		cut := 0
		for _, part := range strings.Split(spec, ",") {
			fields := strings.Split(strings.TrimSpace(part), ":")
			switch fields[0] {
			case "":
			case "powercut":
				n, _ := strconv.Atoi(fields[1])
				if cut = n + 1; cut <= 0 {
					t.Fatalf("%q parsed, but its power cut can never trip", spec)
				}
			default:
				kinds = append(kinds, fields[0])
			}
		}
		if len(fp.rules) != len(kinds) {
			t.Fatalf("%q armed %d rules, names %d", spec, len(fp.rules), len(kinds))
		}
		for i, r := range fp.rules {
			if r.kind != kinds[i] {
				t.Fatalf("%q rule %d is %s, want %s", spec, i, r.kind, kinds[i])
			}
			if !(r.from == 0 && r.to == 0 || 1 <= r.from && r.from <= r.to) {
				t.Fatalf("%q rule %d has window %d-%d", spec, i, r.from, r.to)
			}
		}
		if fp.cutAfter != cut {
			t.Fatalf("%q trips the power cut after op %d, want %d", spec, fp.cutAfter, cut)
		}
	})
}
