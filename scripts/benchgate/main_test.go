package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

var e2e = []metricSpec{
	{Name: "op_p50_ms", Better: "lower", Bound: 0.25},
	{Name: "mrefs", Better: "higher", Bound: 0.25},
}

// okRun is a correct run that read op and mrefs.
func okRun(op, mrefs float64) run {
	return parseRun([]byte(fmt.Sprintf(`{"workload":"w","seed":1}
{"correct":true,"attempted":100,"failed":0,"metrics":{"op_p50_ms":{"value":%g,"unit":"ms"},"mrefs":{"value":%g,"unit":"Mref/s"}}}`, op, mrefs)), nil)
}

// opPairs pairs parent and change op_p50_ms values, mrefs held equal.
func opPairs(parent, change []float64) []pair {
	ps := make([]pair, len(parent))
	for i := range ps {
		ps[i] = pair{okRun(parent[i], 10), okRun(change[i], 10)}
	}
	return ps
}

func judge(ps []pair) verdict {
	var v verdict
	v.decide("w", e2e, ps)
	return v
}

func mustFail(t *testing.T, v verdict, want string) {
	t.Helper()
	if len(v.failures) == 0 || !strings.Contains(strings.Join(v.failures, "\n"), want) {
		t.Errorf("failures %q, want one naming %q", v.failures, want)
	}
}

func mustPass(t *testing.T, v verdict) {
	t.Helper()
	if len(v.failures) > 0 || len(v.parentErrors) > 0 {
		t.Errorf("failures %q, parent errors %q, want none", v.failures, v.parentErrors)
	}
}

func TestDecideMedianBeyondBoundInMostPairsFails(t *testing.T) {
	v := judge(opPairs([]float64{100, 100, 100}, []float64{150, 160, 90}))
	mustFail(t, v, "op_p50_ms median 150")
	if r := v.rows[0]; r != "w\top_p50_ms\t100\t150\t+50.0\t2/3\t" {
		t.Errorf("row %q, want 2 of 3 pairs worse at +50%%", r)
	}
}

func TestDecideMedianBeyondBoundInMinorityPasses(t *testing.T) {
	// The same medians, 150 against 100, but the change is worse in only
	// one pair of three.
	v := judge(opPairs([]float64{100, 100, 300}, []float64{150, 90, 200}))
	mustPass(t, v)
	if r := v.rows[0]; r != "w\top_p50_ms\t100\t150\t+50.0\t1/3\t" {
		t.Errorf("row %q, want 1 of 3 pairs worse at +50%%", r)
	}
}

func TestDecideWithinBoundPasses(t *testing.T) {
	mustPass(t, judge(opPairs([]float64{100, 100, 100}, []float64{120, 124, 110})))
}

func TestDecideHigherIsBetterFlipsDirection(t *testing.T) {
	up := []pair{{okRun(100, 10), okRun(100, 20)}, {okRun(100, 10), okRun(100, 20)}, {okRun(100, 10), okRun(100, 20)}}
	mustPass(t, judge(up))
	down := []pair{{okRun(100, 20), okRun(100, 10)}, {okRun(100, 20), okRun(100, 10)}, {okRun(100, 20), okRun(100, 10)}}
	mustFail(t, judge(down), "mrefs median 10")
}

func TestDecideIncorrectChangeFails(t *testing.T) {
	ps := opPairs([]float64{100, 100, 100}, []float64{100, 100, 100})
	ps[1].change = parseRun([]byte(`{"correct":false,"attempted":4,"failed":1,"metrics":{"op_p50_ms":{"value":100},"mrefs":{"value":10}}}`),
		errors.New("exit status 1"))
	v := judge(ps)
	mustFail(t, v, "seed 2: change run reported correct: false")
	mustFail(t, v, "change failed 1 of 204 operations, parent 0 of 300")
}

func TestDecideHigherFailedShareFails(t *testing.T) {
	ps := opPairs([]float64{100, 100, 100}, []float64{100, 100, 100})
	ps[0].change.Failed = 1 // a failure the run itself did not flag
	mustFail(t, judge(ps), "change failed 1 of 300 operations")
}

func TestDecideMissingResultLineFails(t *testing.T) {
	ps := opPairs([]float64{100, 100, 100}, []float64{100, 100, 100})
	ps[2].change = parseRun([]byte(`{"workload":"w","seed":3}`), errors.New("exit status 1: did not measure op_p50_ms"))
	mustFail(t, judge(ps), "seed 3: change run printed no result line")
	ps[2].change = parseRun(nil, nil)
	mustFail(t, judge(ps), "seed 3: change run printed no result line")
}

func TestDecideBrokenParentIsAParentError(t *testing.T) {
	ps := opPairs([]float64{100, 100, 100}, []float64{100, 100, 100})
	ps[0].parent = parseRun([]byte("panic: boom"), errors.New("exit status 2"))
	v := judge(ps)
	if len(v.failures) > 0 {
		t.Errorf("a broken parent run was blamed on the change: %q", v.failures)
	}
	if len(v.parentErrors) != 1 || !strings.Contains(v.parentErrors[0], "seed 1: parent run printed no result line") {
		t.Errorf("parent errors %q, want one naming seed 1", v.parentErrors)
	}
	if len(v.rows) == 0 || !strings.HasSuffix(v.rows[0], "\t0/2\t") {
		t.Errorf("rows %q, want the two sound pairs compared", v.rows)
	}
}
