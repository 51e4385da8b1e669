package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vcoma/internal/config"
	"vcoma/internal/runner"
	"vcoma/internal/serve"
)

// TestMain runs the command itself when a test re-executes the test binary
// with VCOMA_SIM_MAIN set.
func TestMain(m *testing.M) {
	if os.Getenv("VCOMA_SIM_MAIN") != "" {
		main()
	}
	os.Exit(m.Run())
}

// vcomaSim runs the command with args and returns its output and error.
func vcomaSim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VCOMA_SIM_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestReplayRunsAtTheRecordedScale: a replay with no -scale runs at the
// scale the trace was recorded at, reproducing the live run's cycles
// (TestReplayIdentity's pin for RADIX under V-COMA), and a -scale that
// names another scale fails.
func TestReplayRunsAtTheRecordedScale(t *testing.T) {
	dir := t.TempDir()
	if out, err := vcomaSim(t, "-bench", "RADIX", "-scale", "test", "-record", dir); err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	out, err := vcomaSim(t, "-replay", dir)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	for _, want := range []string{"scale test", "execution time: 603780 cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output lacks %q:\n%s", want, out)
		}
	}
	out, err = vcomaSim(t, "-replay", dir, "-scale", "small")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(out, "-scale small, but "+dir+" was recorded at scale test") {
		t.Errorf("replay at -scale small: %v, want exit 1 naming both scales:\n%s", err, out)
	}
}

// TestReplayRefusesOversizedLayout: a trace directory is untrusted input,
// so a layout.txt claiming a 1 PiB region fails with an error and exit 1
// instead of allocating until the host runs out.
func TestReplayRefusesOversizedLayout(t *testing.T) {
	dir := t.TempDir()
	if out, err := vcomaSim(t, "-bench", "RADIX", "-scale", "test", "-record", dir); err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	layout := "scale test\nx 1048576 1125899906842624\n"
	if err := os.WriteFile(filepath.Join(dir, "layout.txt"), []byte(layout), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := vcomaSim(t, "-replay", dir)
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(out, "the machine holds") {
		t.Errorf("replay of a 1 PiB layout: %v, want exit 1 naming the bound:\n%s", err, out)
	}
}

// flagCell parses args the way vcoma-sim's command line does and resolves
// the cell they name, keyed as vcoma-serve keys a request.
func flagCell(t *testing.T, args ...string) (config.Config, runner.Key, error) {
	t.Helper()
	fs := flag.NewFlagSet("vcoma-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cellOf := cellFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, bench, scale, err := cellOf().Resolve()
	if err != nil {
		return config.Config{}, "", err
	}
	return cfg, serve.Spec{Config: cfg, Bench: bench, Scale: scale}.Key(), nil
}

// TestFlagsResolveLikeServe: every cell vcoma-sim's flags can name resolves
// to the configuration and key vcoma-serve gives the same request.
func TestFlagsResolveLikeServe(t *testing.T) {
	for _, scheme := range []string{"l0", "l1", "l2", "l3", "vcoma"} {
		for _, scale := range []string{"test", "small", "paper"} {
			for _, tlb := range []int{0, 8, 64} {
				for _, org := range []string{"fa", "dm"} {
					req := serve.Request{Bench: "FFT", Scheme: scheme, Scale: scale, TLB: tlb, Org: org}
					spec, err := req.Resolve()
					if err != nil {
						t.Fatalf("%+v: %v", req, err)
					}
					cfg, key, err := flagCell(t, "-bench", "FFT", "-scheme", scheme, "-scale", scale,
						"-tlb", fmt.Sprint(tlb), "-org", org)
					if err != nil {
						t.Fatalf("%+v: flags: %v", req, err)
					}
					if !reflect.DeepEqual(cfg, spec.Config) {
						t.Errorf("%+v: flags resolve to\n%+v\nserve to\n%+v", req, cfg, spec.Config)
					}
					if key != spec.Key() {
						t.Errorf("%+v: flags key %s, serve key %s", req, key, spec.Key())
					}
				}
			}
		}
	}
}

// TestBadCellsRejectedOnBothPaths: a bad org, scale or scheme fails on
// the command line and at the service alike.
func TestBadCellsRejectedOnBothPaths(t *testing.T) {
	for _, tc := range []struct {
		flag string
		req  serve.Request
	}{
		{"-org", serve.Request{Bench: "FFT", Scheme: "vcoma", Scale: "test", Org: "bogus"}},
		{"-scale", serve.Request{Bench: "FFT", Scheme: "vcoma", Scale: "bogus"}},
		{"-scheme", serve.Request{Bench: "FFT", Scheme: "bogus", Scale: "test"}},
	} {
		if _, _, err := flagCell(t, "-scale", "test", tc.flag, "bogus"); err == nil {
			t.Errorf("vcoma-sim accepted %s bogus", tc.flag)
		}
		if _, err := tc.req.Resolve(); err == nil {
			t.Errorf("serve accepted %+v", tc.req)
		}
	}
}
