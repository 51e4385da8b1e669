package obs

import (
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
)

// StartPprof serves net/http/pprof on addr (e.g. "localhost:6060") in a
// background goroutine, so paper-scale runs can be profiled live:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
//
// Samples taken inside a runner job carry its job and key labels, so
// -tagfocus job=<regexp> narrows the capture to matching passes.
//
// An empty addr is a no-op. The listen error (port taken, bad address) is
// returned synchronously; serve errors after that are ignored, as the
// profiling endpoint is best-effort and must never take the run down.
func StartPprof(addr string) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go func() { _ = http.Serve(ln, nil) }()
	return nil
}
