package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vcoma"
	"vcoma/internal/experiments"
	"vcoma/internal/fsio"
	"vcoma/internal/runner"
)

// setupBatch is how many set-ups one set-up sample of a campaign averages.
const setupBatch = 8

// runCampaign is the campaign workload: the whole evaluation
// (experiments.Suite, what vcoma-report runs) at test scale with one worker
// per CPU, over and over until the timed phase is spent. Each campaign starts
// from an empty cache, so every pass is computed and written, and is then
// rerun warm, reading everything back from that cache. The suite's inputs are
// fixed, so the seed does not change this workload.
func runCampaign(cfg runConfig) (*outcome, error) {
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	fs := fsio.New(nil) // the benchmark's own seam, so it can count the cache's I/O
	var rec *fsio.Recorder
	if cfg.trace != nil {
		rec = fsio.NewRecorder(cfg.work, false)
		fs.SetRecorder(rec)
	}
	suite := func(dir string, p *runner.Progress) *experiments.Suite {
		return &experiments.Suite{
			Cfg: vcoma.Baseline(), Scale: cfg.scale, Jobs: runtime.NumCPU(),
			CacheDir: dir, FS: fs, Progress: p,
		}
	}
	wantSHA := want.CampaignReportSHA256[cfg.scale.String()]
	out := &outcome{}

	var setups, cold, warm, render []float64
	layers := map[string][]float64{}
	minHits := -1
	n := 0
	err = timedLoop(cfg.seconds, func() (time.Duration, error) {
		cache := filepath.Join(cfg.work, fmt.Sprintf("cache-%d", n))
		n++
		defer os.RemoveAll(cache)
		defer os.RemoveAll(cache + "-setup")

		// Set-up: planning the suite and opening an empty cache, well under
		// a millisecond, so each sample is the mean of a batch. One batch
		// per campaign spreads the samples over the whole run.
		sp := cfg.trace.StartSpan("setup")
		t := time.Now()
		for i := 0; i < setupBatch; i++ {
			dir := filepath.Join(cache+"-setup", fmt.Sprint(i))
			if _, err := suite(dir, nil).Plan(); err != nil {
				return 0, err
			}
			if _, err := runner.OpenCacheFS(dir, fs); err != nil {
				return 0, err
			}
		}
		setups = append(setups, seconds(time.Since(t))/setupBatch)
		sp.End()

		// Cold: every pass computed and written.
		p := runner.NewProgress(nil)
		ops0, fsyncs0 := fs.Counters().Ops, fsyncCount(rec)
		sp = cfg.trace.StartSpan("campaign.cold")
		t = time.Now()
		res, err := suite(cache, p).Run()
		if err != nil {
			return 0, fmt.Errorf("cold campaign: %w", err)
		}
		rsp := sp.StartChild("report.render")
		report := res.RenderMarkdown()
		rsp.End()
		coldD := time.Since(t)
		sp.End()
		out.attempted++
		h := sha256.Sum256([]byte(report))
		if got := hex.EncodeToString(h[:]); got != wantSHA {
			out.mismatch("campaign report at %v scale: sha256 %s, want %s", cfg.scale, got, wantSHA)
		}
		cold = append(cold, millis(coldD))
		for k, v := range runnerLayers(p.Summary(), runtime.NumCPU()) {
			layers[k] = append(layers[k], v)
		}
		layers["fsio.ops"] = append(layers["fsio.ops"], float64(fs.Counters().Ops-ops0))
		layers["fsio.fsyncs"] = append(layers["fsio.fsyncs"], float64(fsyncCount(rec)-fsyncs0))

		// Warm: everything read back from the cache just written.
		p = runner.NewProgress(nil)
		sp = cfg.trace.StartSpan("campaign.warm")
		t = time.Now()
		r, err := suite(cache, p).Run()
		if err != nil {
			return 0, fmt.Errorf("warm campaign: %w", err)
		}
		rt := time.Now()
		rsp = sp.StartChild("report.render")
		md := r.RenderMarkdown()
		rsp.End()
		warmD := time.Since(t)
		sp.End()
		out.attempted++
		if md != report {
			out.mismatch("warm campaign report differs from the cold one")
		}
		s := p.Summary()
		if s.CacheHits != s.Total {
			out.mismatch("warm campaign: %d cache hits of %d jobs", s.CacheHits, s.Total)
		}
		if minHits < 0 || s.CacheHits < minHits {
			minHits = s.CacheHits
		}
		warm = append(warm, millis(warmD))
		render = append(render, millis(time.Since(rt)))
		return time.Since(t) + coldD, nil
	})
	if err != nil {
		return nil, err
	}

	out.e2e = map[string]float64{
		"setup_s":     median(setups),
		"peak_rss_mb": peakRSSMB(),
		"op_p50_ms":   median(cold),
	}
	out.layer = map[string]float64{}
	for k, vs := range layers {
		out.layer[k] = median(vs)
	}
	out.layer["runner.cache_hits"] = float64(minHits)
	out.layer["runner.warm_ms"] = median(warm)
	out.layer["report.render_ms"] = median(render)
	return out, nil
}

// runnerLayers reads a cold campaign's runner.Progress summary: busy seconds
// per pass kind, and the pool's use of its workers.
func runnerLayers(s runner.Summary, workers int) map[string]float64 {
	l := map[string]float64{
		"runner.jobs":   float64(s.Total),
		"runner.failed": float64(s.Failed),
	}
	kinds := map[string]string{
		"observe": "experiments.observe_s", "table4": "experiments.table4_s",
		"fig10": "experiments.fig10_s", "fig11": "experiments.fig11_s", "mgmt": "experiments.mgmt_s",
	}
	for _, j := range s.Jobs {
		kind, _, _ := strings.Cut(j.Name, "/")
		if name, ok := kinds[kind]; ok {
			l[name] += j.Seconds
		}
		l["runner.busy_s"] += j.Seconds
		if j.Seconds > l["runner.longest_job_s"] {
			l["runner.longest_job_s"] = j.Seconds
		}
	}
	if s.ElapsedSeconds > 0 {
		l["runner.utilization"] = l["runner.busy_s"] / (s.ElapsedSeconds * float64(workers))
	}
	return l
}

// fsyncCount is how many file and directory syncs rec has seen (0 untraced).
func fsyncCount(rec *fsio.Recorder) int {
	if rec == nil {
		return 0
	}
	n := 0
	for _, op := range rec.Ops() {
		if op.Op == fsio.OpFsync || op.Op == fsio.OpFsyncDir {
			n++
		}
	}
	return n
}
