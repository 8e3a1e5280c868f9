package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// shuffled returns 1..n in a fixed random order.
func shuffled(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := shuffled(100)
	first := xs[0]
	for _, c := range []struct{ pct, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}, {0.5, 1}, {90.5, 91},
	} {
		if got := percentile(xs, c.pct); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.pct, got, c.want)
		}
	}
	if xs[0] != first {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 4 samples = %g, want the lower middle 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
		ok      bool
	}{
		{19, 0, false}, // even the median has only 9 samples above it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{604, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		xs := shuffled(c.n)
		pct, v, ok := tail(xs)
		if ok != c.ok || pct != c.wantPct {
			t.Errorf("tail(n=%d) = p%g ok=%v, want p%g ok=%v", c.n, pct, ok, c.wantPct, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("tail(n=%d) = p%g value %g has %d samples beyond, want >= %d", c.n, pct, v, beyond, minBeyond)
		}
	}
}

func TestJobsAreClassedByRequestKind(t *testing.T) {
	reqs := designRequests(5, 3)
	if len(reqs) != 1+ecoResubmits {
		t.Fatalf("design sends %d requests, want %d", len(reqs), 1+ecoResubmits)
	}
	count := map[reqKind]int{}
	for i, rq := range reqs {
		count[rq.kind]++
		if (i == 0) != (rq.kind == kindFresh) {
			t.Errorf("request %d is %s; only the first request of a design is fresh", i, rq.kind)
		}
		if (rq.kind == kindChild) != (rq.spec.Design.Perturb != nil) {
			t.Errorf("request %d is %s with perturbation %+v", i, rq.kind, rq.spec.Design.Perturb)
		}
		if rq.kind == kindExact {
			a, _ := json.Marshal(rq.spec)
			b, _ := json.Marshal(reqs[0].spec)
			if !bytes.Equal(a, b) {
				t.Errorf("exact resubmission %d differs from the fresh spec:\n%s\n%s", i, a, b)
			}
		}
	}
	if count[kindExact] != ecoResubmits/2 || count[kindChild] != ecoResubmits/2 {
		t.Errorf("resubmissions = %d exact, %d children; want half each", count[kindExact], count[kindChild])
	}

	// The class comes from the request, not from what the cache did: an
	// exact resubmission that missed the cache is still an exact one.
	done := func(kind reqKind, cache string, ms float64) jobRecord {
		return jobRecord{
			kind: kind, latency: ms / 1000,
			view:  service.JobView{State: service.StateDone, Cache: cache, Result: &core.FlowResult{DPWL: 1}},
			fresh: service.JobView{Result: &core.FlowResult{DPWL: 1}},
		}
	}
	recs := []jobRecord{
		done(kindFresh, "miss", 1000),
		done(kindExact, "hit", 8),
		done(kindExact, "miss", 900), // raced the parent's cache write
		done(kindChild, "near_hit", 30),
		done(kindChild, "miss", 950),
		{kind: kindExact, view: service.JobView{State: service.StateFailed}},
	}
	exact, child := byKind(recs, kindExact), byKind(recs, kindChild)
	if len(exact) != 2 || len(child) != 2 || len(byKind(recs, kindFresh)) != 1 {
		t.Fatalf("byKind: %d exact, %d child; want 2 and 2 done jobs", len(exact), len(child))
	}
	rep := newReport()
	setKindLatencies(rep, byKind(recs, kindFresh), exact, child)
	if got := rep.values["hit_p90_ms"]; got != 900 {
		t.Errorf("hit_p90_ms = %g, want the raced miss (900) counted as an exact resubmission", got)
	}
	if hit, near := cacheRatios(exact, child); hit != 0.5 || near != 0.5 {
		t.Errorf("cache ratios = %g hit, %g near hit; want 0.5 and 0.5", hit, near)
	}
}

// benchmarkFile is BENCHMARK.json, the contract the program's tables follow.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		table []metric
		file  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		if len(c.table) != len(c.file) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", c.name, len(c.table), len(c.file))
			continue
		}
		for i, m := range c.table {
			if m.name != c.file[i].Name || m.unit != c.file[i].Unit {
				t.Errorf("%s[%d]: program has %s (%s), BENCHMARK.json %s (%s)", c.name, i, m.name, m.unit, c.file[i].Name, c.file[i].Unit)
			}
		}
	}
}

func TestResultPrintsEveryMetricWithItsUnit(t *testing.T) {
	for _, table := range [][]metric{endToEnd, perLayer} {
		rep := newReport()
		rep.attempted = 3
		for i, m := range table {
			rep.set(m.name, float64(i)+0.125)
		}
		var buf bytes.Buffer
		correct, err := writeResult(&buf, rep, table)
		if err != nil || !correct {
			t.Fatalf("writeResult: correct=%v err=%v", correct, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the JSON result: %v", err)
		}
		if !res.Correct || res.Attempted != 3 || res.Failed != 0 || len(res.Metrics) != len(table) {
			t.Errorf("result = %+v", res)
		}
		printed := map[string]string{} // metric name -> unit on its text line
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 3 {
				printed[f[0]] = f[2]
			}
		}
		for i, m := range table {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || got.Value != float64(i)+0.125 {
				t.Errorf("metric %s = %+v, want value %g unit %s", m.name, got, float64(i)+0.125, m.unit)
			}
			if printed[m.name] != m.unit {
				t.Errorf("text line for %s shows unit %q, want %q", m.name, printed[m.name], m.unit)
			}
		}
	}

	rep := newReport()
	rep.attempted, rep.failed = 2, 1
	var buf bytes.Buffer
	if correct, _ := writeResult(&buf, rep, endToEnd); correct {
		t.Error("a run with a failed check reported correct")
	}
}
