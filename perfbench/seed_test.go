package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/netlist"
	"repro/internal/synth"
)

// ecoPlan is the serve_eco request sequence of the first n designs, as JSON
// job specs with each request's kind, and the content hash of every design
// the sequence names.
func ecoPlan(t *testing.T, seed int64, n int) ([]string, []netlist.Hash) {
	t.Helper()
	var seq []string
	var hashes []netlist.Hash
	for idx := 0; idx < n; idx++ {
		for _, rq := range designRequests(seed, idx) {
			b, err := json.Marshal(rq.spec)
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, rq.kind.String()+" "+string(b))
			d, err := buildDesign(rq.spec.Design)
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, d.ContentHash())
		}
	}
	return seq, hashes
}

func TestSeedFixesServeRequestsAndDesigns(t *testing.T) {
	seq1, hash1 := ecoPlan(t, 42, 2)
	seq2, hash2 := ecoPlan(t, 42, 2)
	if !reflect.DeepEqual(seq1, seq2) {
		t.Error("one seed gave two different request sequences")
	}
	if !reflect.DeepEqual(hash1, hash2) {
		t.Error("one seed gave two different sets of design hashes")
	}
	seq3, hash3 := ecoPlan(t, 43, 2)
	for i := range seq1 {
		if seq1[i] == seq3[i] {
			t.Errorf("request %d is the same under seeds 42 and 43: %s", i, seq1[i])
		}
		if hash1[i] == hash3[i] {
			t.Errorf("design of request %d hashes the same under seeds 42 and 43", i)
		}
	}
	// Children are real ECO edits of their design, not copies of it.
	for i, rq := range designRequests(42, 0) {
		if rq.kind == kindChild && hash1[i] == hash1[0] {
			t.Errorf("child request %d builds the parent design unchanged", i)
		}
	}
}

func TestSeedFixesFlowDesignAndPlacer(t *testing.T) {
	hash := func(w flowWorkload, seed int64, j int) netlist.Hash {
		d, err := synth.Generate(w.spec(seed, j))
		if err != nil {
			t.Fatal(err)
		}
		return d.ContentHash()
	}
	for _, w := range []flowWorkload{flowNewblue1, flowISPD19} {
		if hash(w, 7, 0) != hash(w, 7, 0) {
			t.Errorf("%s: one seed gave two different designs", w.contest.Name)
		}
		if hash(w, 7, 0) == hash(w, 8, 0) || hash(w, 7, 0) == hash(w, 7, 1) {
			t.Errorf("%s: two seeds or two design indices gave the same design", w.contest.Name)
		}
		if w.config(7, 0, 1).GP.Seed != w.config(7, 0, 2).GP.Seed || w.config(7, 0, 1).GP.Seed == w.config(8, 0, 1).GP.Seed {
			t.Errorf("%s: placer seed is not a function of the workload seed and design alone", w.contest.Name)
		}
	}
}
