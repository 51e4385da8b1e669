package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRequestResolve decodes arbitrary bytes into a Request the way the
// submit handler does and resolves it. Resolve must never panic, and every
// spec it accepts must be a valid configuration whose key is stable across
// resolutions. The committed corpus includes an oversized TLB, which must
// be rejected before any machine is sized from it.
//
// Run natively:  go test -run=^$ -fuzz=FuzzRequestResolve ./internal/serve/
func FuzzRequestResolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		spec, err := req.Resolve()
		if err != nil {
			return
		}
		if err := spec.Config.Validate(); err != nil {
			t.Fatalf("Resolve accepted an invalid configuration: %v", err)
		}
		again, err := req.Resolve()
		if err != nil {
			t.Fatalf("second Resolve of an accepted request failed: %v", err)
		}
		if spec.Key() != again.Key() {
			t.Fatalf("key not stable: %s vs %s", spec.Key(), again.Key())
		}
	})
}
