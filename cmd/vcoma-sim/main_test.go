package main

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"testing"

	"vcoma/internal/config"
	"vcoma/internal/runner"
	"vcoma/internal/serve"
)

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
