package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// sweepLimitMS is the result_p99_ms limit of the capacity sweep: a rate is
// sustained when the requests that wait on a simulation meet it, none
// fails, and the backlog does not grow.
const sweepLimitMS = 250

// sweepRates are the offered rates the sweep steps through, in req/s.
var sweepRates = []float64{20, 40, 60, 80, 100, 120, 140, 160}

type sweepStep struct {
	Rate      float64 `json:"rate_req_per_s"`
	Requests  int     `json:"requests"`
	Failed    int     `json:"failed"`
	Waiting   int     `json:"waiting_requests"`
	P50       float64 `json:"result_p50_ms"`
	P99       float64 `json:"result_p99_ms"`
	HitP50    float64 `json:"hit_p50_ms"`
	FirstQ    float64 `json:"first_quarter_p50_ms"`
	LastQ     float64 `json:"last_quarter_p50_ms"`
	Drain     float64 `json:"drain_s"`
	Sustained bool    `json:"sustained"`
}

// capacitySweep runs the serve-mixed traffic once at each of sweepRates and
// prints, as its last line, the highest rate sustained. The backlog counts
// as growing when the median wait of the last quarter of the schedule is
// more than twice that of the first quarter. It stops after two rates in a
// row are not sustained.
func capacitySweep(cfg runConfig) error {
	var steps []sweepStep
	capacity := 0.0
	misses := 0
	for _, rate := range sweepRates {
		rc := cfg
		rc.work = filepath.Join(cfg.work, fmt.Sprint(rate))
		sr, err := openLoop(rc, rate, 0)
		if err != nil {
			return err
		}
		out := &outcome{}
		sr.check(out)
		waited, hits := sr.latencies()
		var first, last []float64
		for i, r := range sr.results {
			if r.err != nil || !r.waited {
				continue
			}
			switch q := sr.plan[i].due.Seconds() / cfg.seconds; {
			case q < 0.25:
				first = append(first, millis(r.latency))
			case q >= 0.75:
				last = append(last, millis(r.latency))
			}
		}
		st := sweepStep{
			Rate: rate, Requests: out.attempted, Failed: out.failed, Waiting: len(waited),
			P50: median(waited), P99: quantile(waited, 0.99), HitP50: median(hits),
			FirstQ: median(first), LastQ: median(last),
			Drain: seconds(sr.wall - time.Duration(cfg.seconds*float64(time.Second))),
		}
		st.Sustained = st.Failed == 0 && st.P99 <= sweepLimitMS && st.LastQ <= 2*st.FirstQ
		steps = append(steps, st)
		line, _ := json.Marshal(st)
		fmt.Println(string(line))
		if st.Sustained {
			capacity, misses = rate, 0
		} else if misses++; misses == 2 {
			break
		}
	}
	line, err := json.Marshal(map[string]any{
		"limit_result_p99_ms": sweepLimitMS,
		"seconds_per_rate":    cfg.seconds,
		"seed":                cfg.seed,
		"capacity_req_per_s":  capacity,
		"steps":               steps,
		"host":                hostRecord(),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
