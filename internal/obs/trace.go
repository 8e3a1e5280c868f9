package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanEvent is one completed span: a named stretch of wall time, tagged with
// the global placement iteration it ran in (-1 outside the loop). TS and Dur
// are microseconds relative to the tracer's start, stored as float64 so they
// survive a JSON round-trip bit-exactly.
type SpanEvent struct {
	Name string  `json:"name"`
	Iter int     `json:"iter"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// MaxTraceEvents bounds a tracer's in-memory buffer; spans beyond it are
// counted in Dropped instead of recorded, so a runaway run cannot exhaust
// memory through its own instrumentation.
const MaxTraceEvents = 1 << 20

// Tracer records spans for one run. Span recording is safe for concurrent
// use; export methods may run concurrently with recording and see a
// consistent snapshot.
type Tracer struct {
	start time.Time
	iter  atomic.Int64

	mu      sync.Mutex
	events  []SpanEvent
	dropped int64
}

// NewTracer starts a tracer; spans are timestamped relative to this call.
func NewTracer() *Tracer {
	t := &Tracer{start: time.Now()}
	t.iter.Store(-1)
	return t
}

// SetIter tags subsequently started spans with iteration k.
func (t *Tracer) SetIter(k int) {
	if t != nil {
		t.iter.Store(int64(k))
	}
}

// add records one completed span.
func (t *Tracer) add(name string, iter int, start time.Time, d time.Duration) {
	ev := SpanEvent{
		Name: name,
		Iter: iter,
		TS:   float64(start.Sub(t.start)) / float64(time.Microsecond),
		Dur:  float64(d) / float64(time.Microsecond),
	}
	t.mu.Lock()
	if len(t.events) >= MaxTraceEvents {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Events returns a copy of the recorded spans in completion order.
func (t *Tracer) Events() []SpanEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanEvent(nil), t.events...)
}

// Dropped reports how many spans were discarded after the buffer filled.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Trace is the decoded form of an exported trace.
type Trace struct {
	Events []SpanEvent
}

// chromeEvent is one entry of the Chrome trace_event format ("X" = complete
// event with explicit duration; ts/dur in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object flavour of the trace file format, which
// both chrome://tracing and Perfetto accept. Decoding ignores other
// top-level keys, such as the "otherData" metadata older exports carry.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders the recorded spans as a Chrome trace_event JSON
// document, sorted by start time so nested spans follow their parents.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].TS != events[b].TS {
			return events[a].TS < events[b].TS
		}
		return events[a].Dur > events[b].Dur // parents before children
	})
	ct := chromeTrace{
		DisplayTimeUnit: "ms",
		TraceEvents:     make([]chromeEvent, len(events)),
	}
	for i, ev := range events {
		ct.TraceEvents[i] = chromeEvent{
			Name: ev.Name,
			Cat:  "place",
			Ph:   "X",
			PID:  1,
			TID:  1,
			TS:   ev.TS,
			Dur:  ev.Dur,
			Args: map[string]any{"iter": ev.Iter},
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

// ReadChromeTrace decodes a trace written by WriteChromeTrace (or any
// trace_event JSON object with complete "X" events) back into span events.
func ReadChromeTrace(r io.Reader) (*Trace, error) {
	var ct chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ct); err != nil {
		return nil, fmt.Errorf("obs: decoding chrome trace: %w", err)
	}
	tr := &Trace{}
	for _, ce := range ct.TraceEvents {
		if ce.Ph != "X" {
			continue
		}
		ev := SpanEvent{Name: ce.Name, Iter: -1, TS: ce.TS, Dur: ce.Dur}
		if it, ok := ce.Args["iter"].(float64); ok {
			ev.Iter = int(it)
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, nil
}

// WriteJSONL renders the recorded spans as one JSON object per line, in
// completion order — the streaming-friendly export.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL decodes a JSONL event stream written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]SpanEvent, error) {
	var out []SpanEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev SpanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("obs: decoding JSONL event: %w", err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}
