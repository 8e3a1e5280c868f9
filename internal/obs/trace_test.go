package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer()
	o := &Observer{Trace: tr}

	setup := o.StartPhase(PhaseSetup)
	setup.End()
	for k := 0; k < 3; k++ {
		it := o.StartIteration(k)
		for _, name := range EnginePhases() {
			sp := o.StartPhase(name)
			sp.End()
		}
		it.End()
	}

	evs := tr.Events()
	wantN := 1 + 3*(len(EnginePhases())+1)
	if len(evs) != wantN {
		t.Fatalf("recorded %d spans, want %d", len(evs), wantN)
	}
	if evs[0].Name != PhaseSetup || evs[0].Iter != -1 {
		t.Errorf("setup span = %+v, want name=%s iter=-1", evs[0], PhaseSetup)
	}
	// The iteration umbrella span ends last within each iteration; all spans
	// inside iteration k must be tagged k.
	for _, ev := range evs[1:] {
		if ev.Iter < 0 || ev.Iter > 2 {
			t.Errorf("span %q tagged iter=%d, want 0..2", ev.Name, ev.Iter)
		}
		if ev.Dur < 0 || ev.TS < 0 {
			t.Errorf("span %q has negative time: %+v", ev.Name, ev)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped() = %d, want 0", tr.Dropped())
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer()
	base := time.Now()
	tr.add(PhaseIteration, 0, base, 500*time.Microsecond)
	tr.add(PhaseWirelength, 0, base.Add(10*time.Microsecond), 120*time.Microsecond)
	tr.add(PhaseSolve, 1, base.Add(600*time.Microsecond), 90*time.Microsecond)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// Validate the envelope shape independently of our own decoder.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if raw["displayTimeUnit"] != "ms" {
		t.Errorf("displayTimeUnit = %v, want ms", raw["displayTimeUnit"])
	}

	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events() // already TS-sorted: added in ascending start order
	if len(got.Events) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got.Events), len(want))
	}
	for i := range want {
		if got.Events[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v (round trip must be exact)", i, got.Events[i], want[i])
		}
	}
}

func TestChromeTraceParentsPrecedeChildren(t *testing.T) {
	tr := NewTracer()
	base := time.Now()
	// Child added before parent, same start time: export must order the
	// longer (enclosing) span first so viewers nest them correctly.
	tr.add(PhaseWirelength, 0, base, 100*time.Microsecond)
	tr.add(PhaseIteration, 0, base, 400*time.Microsecond)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events[0].Name != PhaseIteration {
		t.Errorf("first exported span = %q, want the enclosing %q", got.Events[0].Name, PhaseIteration)
	}
}

// TestReadChromeTraceSkipsOtherPhases also decodes the "otherData" worker
// metadata that older exports carry, which the reader ignores.
func TestReadChromeTraceSkipsOtherPhases(t *testing.T) {
	doc := `{"displayTimeUnit":"ms","otherData":{"workers":"4"},"traceEvents":[
		{"name":"proc","ph":"M","pid":1,"tid":1},
		{"name":"wirelength","cat":"place","ph":"X","pid":1,"tid":1,"ts":1.5,"dur":2.25,"args":{"iter":3}}
	]}`
	got, err := ReadChromeTrace(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 1 {
		t.Fatalf("decoded %d events, want 1 (metadata event must be skipped)", len(got.Events))
	}
	want := SpanEvent{Name: "wirelength", Iter: 3, TS: 1.5, Dur: 2.25}
	if got.Events[0] != want {
		t.Errorf("event = %+v, want %+v", got.Events[0], want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	base := time.Now()
	tr.add(PhaseStamp, 2, base, 33*time.Microsecond)
	tr.add(PhaseGather, 2, base.Add(40*time.Microsecond), 21*time.Microsecond)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestNoopFastPath(t *testing.T) {
	// All three disabled shapes must return the zero Span.
	var nilObs *Observer
	if sp := nilObs.StartPhase(PhaseSolve); sp != (Span{}) {
		t.Error("nil observer StartPhase returned a live span")
	}
	if sp := nilObs.StartIteration(0); sp != (Span{}) {
		t.Error("nil observer StartIteration returned a live span")
	}
	logOnly := &Observer{}
	if sp := logOnly.StartPhase(PhaseSolve); sp != (Span{}) {
		t.Error("observer without tracer/metrics returned a live span")
	}
	(Span{}).End() // must not panic

	var nilTr *Tracer
	nilTr.SetIter(5)
}

func TestMaxTraceEventsDrops(t *testing.T) {
	tr := NewTracer()
	tr.events = make([]SpanEvent, MaxTraceEvents) // pre-fill to the cap
	tr.add("overflowing", 0, time.Now(), time.Microsecond)
	tr.add("overflowing", 1, time.Now(), time.Microsecond)
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2", got)
	}
	if len(tr.Events()) != MaxTraceEvents {
		t.Errorf("buffer grew past MaxTraceEvents: %d", len(tr.Events()))
	}
}

// TestConcurrentSpans exercises recording + export under -race.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	o := &Observer{Trace: tr, Metrics: NewMetrics()}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := o.StartPhase(PhaseWirelength)
				sp.End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Error(err)
			}
			_ = tr.Events()
			_ = tr.Dropped()
		}
	}()
	wg.Wait()
	if got := len(tr.Events()); got != 400 {
		t.Errorf("recorded %d spans, want 400", got)
	}
}
