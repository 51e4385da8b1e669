package runner

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseChaos parses arbitrary -chaos specs. Parsing must never panic; a
// spec that parses must arm one fault per part, of the kind the part names;
// and the parsed Chaos must re-render through String to a spec that parses
// to the same faults.
//
// Run natively:  go test -run=^$ -fuzz=FuzzParseChaos ./internal/runner/
func FuzzParseChaos(f *testing.F) {
	kinds := map[string]FaultKind{"panic": FaultPanic, "hang": FaultHang, "cancel": FaultCancel, "corrupt": FaultCorrupt}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChaos(spec)
		if err != nil || c == nil {
			return
		}
		parts := strings.Split(strings.TrimSpace(spec), ",")
		if len(c.Faults) != len(parts) {
			t.Fatalf("%q armed %d faults, names %d", spec, len(c.Faults), len(parts))
		}
		for i, part := range parts {
			kind, _, _ := strings.Cut(strings.TrimSpace(part), ":")
			if c.Faults[i].Kind != kinds[kind] {
				t.Fatalf("%q fault %d has kind %d, want %s", spec, i, c.Faults[i].Kind, kind)
			}
		}
		again, err := ParseChaos(c.String())
		if err != nil {
			t.Fatalf("%q re-renders as %q, which does not parse: %v", spec, c.String(), err)
		}
		if !reflect.DeepEqual(again.Faults, c.Faults) {
			t.Fatalf("%q re-renders as %q, which parses to %+v, not %+v", spec, c.String(), again.Faults, c.Faults)
		}
	})
}
