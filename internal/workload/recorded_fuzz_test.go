package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vcoma/internal/trace"
	"vcoma/internal/vm"
)

// FuzzRecordedBuild replays an arbitrary one-processor trace directory: a
// layout.txt and a proc000.vct. A trace directory is untrusted input, so
// Build must end in an error or a program, never a panic; a program's
// layout must span no more pages than the machine holds; and its stream
// must yield at most one event per two bytes of its file (a kind byte and
// a varint each) before it ends, cleanly or with a decode error.
//
// Run natively:  go test -run=^$ -fuzz=FuzzRecordedBuild ./internal/workload/
func FuzzRecordedBuild(f *testing.F) {
	var vct bytes.Buffer
	if _, err := trace.Record(&vct, trace.NewSliceStream([]trace.Event{
		trace.MakeRead(1 << 20),
		trace.MakeWrite(1<<20 + 300),
		trace.MakeCompute(10),
		trace.MakeLock(1),
		trace.MakeUnlock(1),
		trace.MakeBarrier(0),
	})); err != nil {
		f.Fatal(err)
	}
	f.Add("scale test\na 1048576 512\nb 1049088 100\n", vct.Bytes())
	f.Add("scale test\nx 1048576 1125899906842624\n", vct.Bytes())
	f.Add("scale test\nx 9223372036854775808 9223372036854775808\n", vct.Bytes())
	f.Add("scale paper\na 1048576 512\n", vct.Bytes()[:len(vct.Bytes())-1])
	f.Add("", []byte("VCOMATR\x01\xff\x01"))

	g := testGeometry()
	frames := uint64(g.Nodes() * g.PageFramesPerNode())
	f.Fuzz(func(t *testing.T, layout string, proc []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, layoutFile), []byte(layout), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(procFile(dir, 0), proc, 0o644); err != nil {
			t.Fatal(err)
		}
		prog, err := Recorded(dir).Build(g, 1)
		if err != nil {
			return
		}
		// Count the pages before mapping them, so a layout that escaped the
		// bound fails here instead of exhausting memory.
		var pages uint64
		for _, r := range prog.Layout().Regions() {
			pages += uint64(g.Page(r.End()-1)-g.Page(r.Base)) + 1
		}
		if pages > frames {
			t.Fatalf("layout %q spans %d pages; the machine holds %d", layout, pages, frames)
		}
		prog.Layout().PreloadAll(vm.NewSystem(g, vm.VirtualOnly))
		s := prog.Streams()[0]
		defer trace.CloseStream(s)
		for n := 0; ; n++ {
			if _, ok := s.Next(); !ok {
				break
			}
			if n >= len(proc)/2 {
				t.Fatalf("%d-byte trace yields more than %d events", len(proc), n)
			}
		}
	})
}
