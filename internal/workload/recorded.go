package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vcoma/internal/addr"
	"vcoma/internal/fsio"
	"vcoma/internal/trace"
	"vcoma/internal/vm"
)

// A trace directory holds one recorded Program: layout.txt lists the shared
// regions needed to preload it, one "name base bytes" line each, and
// procNNN.vct holds processor NNN's event stream in the trace package's
// binary format. Record writes one; Recorded replays it as a Benchmark.
const layoutFile = "layout.txt"

func procFile(dir string, p int) string {
	return filepath.Join(dir, fmt.Sprintf("proc%03d.vct", p))
}

// Record drains prog's streams into a trace directory at dir through fs
// (nil = plain durable I/O) and returns the number of events written.
func Record(prog *Program, dir string, fs *fsio.FS) (uint64, error) {
	if err := fs.MkdirAll("record", dir); err != nil {
		return 0, err
	}
	var lay strings.Builder
	for _, r := range prog.Layout().Regions() {
		fmt.Fprintf(&lay, "%s %d %d\n", r.Name, uint64(r.Base), r.Bytes)
	}
	if err := fs.WriteFileAtomic("record", filepath.Join(dir, layoutFile), []byte(lay.String())); err != nil {
		return 0, err
	}
	streams := prog.Streams()
	defer func() {
		for _, s := range streams {
			trace.CloseStream(s)
		}
	}()
	total := uint64(0)
	for p, s := range streams {
		n, err := recordStream(s, procFile(dir, p), fs)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

func recordStream(s trace.Stream, path string, fs *fsio.FS) (uint64, error) {
	f, err := fs.Create("record", path)
	if err != nil {
		return 0, err
	}
	n, err := trace.Record(f, s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// Recorded returns the Benchmark a trace directory holds; its name is dir.
// Build reads the layout and checks every processor's file, so a missing
// or malformed one fails before the machine runs; a stream that fails to
// decode mid-run reports its file name through the engine.
func Recorded(dir string) Benchmark { return recorded(dir) }

type recorded string

func (r recorded) Name() string { return string(r) }

func (r recorded) Build(g addr.Geometry, procs int) (*Program, error) {
	dir := string(r)
	raw, err := os.ReadFile(filepath.Join(dir, layoutFile))
	if err != nil {
		return nil, err
	}
	var regions []vm.Region
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var name string
		var base, size uint64
		if _, err := fmt.Sscanf(line, "%s %d %d", &name, &base, &size); err != nil {
			return nil, fmt.Errorf("workload: %s: bad layout line %q: %w", dir, line, err)
		}
		regions = append(regions, vm.Region{Name: name, Base: addr.Virtual(base), Bytes: size})
	}
	layout, err := vm.LayoutFromRegions(g, regions)
	if err != nil {
		return nil, err
	}
	for p := 0; p < procs; p++ {
		s, err := openStream(procFile(dir, p))
		if err != nil {
			return nil, err
		}
		s.Close()
	}
	return &Program{name: dir, layout: layout, procs: procs, stream: func(p int) trace.Stream {
		s, err := openStream(procFile(dir, p))
		if err != nil {
			return failedStream{err}
		}
		return s
	}}, nil
}

// fileStream replays one processor's recorded file.
type fileStream struct {
	*trace.Reader
	f *os.File
}

func openStream(path string) (*fileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rd, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &fileStream{Reader: rd, f: f}, nil
}

// Close implements trace.Closer.
func (s *fileStream) Close() { s.f.Close() }

// Err implements trace.Failer, naming the file that failed to decode.
func (s *fileStream) Err() error {
	if err := s.Reader.Err(); err != nil {
		return fmt.Errorf("%s: %w", s.f.Name(), err)
	}
	return nil
}

// failedStream is a processor whose file could not be reopened: it yields
// no events and reports why.
type failedStream struct{ err error }

func (s failedStream) Next() (trace.Event, bool) { return trace.Event{}, false }
func (s failedStream) Err() error                { return s.err }
