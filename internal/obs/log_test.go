package obs

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestJSONFormat checks that every JSON record is one line that parses and
// carries time, level, msg, the With-bound and the call's attributes, a NaN
// value included.
func TestJSONFormat(t *testing.T) {
	var sb strings.Builder
	l, err := New(&sb, "json", LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	jl := l.With("job", "job-000007")
	jl.Warn("drain", "budget", "30s", "jobs", 2, "err", errors.New("boom"))
	jl.Info("gp: starting", "overflow", math.NaN())
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), sb.String())
	}
	for i, want := range []map[string]any{
		{"level": "WARN", "msg": "drain", "job": "job-000007", "budget": "30s", "jobs": 2.0, "err": "boom"},
		{"level": "INFO", "msg": "gp: starting", "job": "job-000007"},
	} {
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("JSON record does not parse: %v\n%s", err, lines[i])
		}
		if ts, ok := rec["time"].(string); !ok || ts == "" {
			t.Errorf("record %d has no time: %s", i, lines[i])
		}
		for k, v := range want {
			if rec[k] != v {
				t.Errorf("record %d [%q] = %v, want %v", i, k, rec[k], v)
			}
		}
		if i == 1 {
			if _, ok := rec["overflow"]; !ok {
				t.Errorf("NaN attribute dropped: %s", lines[i])
			}
		}
	}
}

func TestLevelFiltering(t *testing.T) {
	var sb strings.Builder
	l, err := New(&sb, "", LevelWarn)
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hidden")
	l.Info("hidden")
	l.Warn("shown")
	l.Error("shown")
	if n := strings.Count(sb.String(), "shown"); n != 2 {
		t.Errorf("emitted %d records, want 2:\n%s", n, sb.String())
	}
	if strings.Contains(sb.String(), "hidden") {
		t.Errorf("suppressed levels leaked:\n%s", sb.String())
	}
}

func TestWithBindsAttrs(t *testing.T) {
	var sb strings.Builder
	l, _ := New(&sb, "text", LevelInfo)
	jl := l.With("job", "job-000007")
	jl.Info("started", "model", "ME")
	if !strings.Contains(sb.String(), "job=job-000007 model=ME") {
		t.Errorf("bound attrs missing: %s", sb.String())
	}
	sb.Reset()
	l.Info("plain")
	if strings.Contains(sb.String(), "job=") {
		t.Errorf("With leaked attrs into parent: %s", sb.String())
	}
}

// TestNilLoggerIsSafe checks Nop, the logger a nil logger field stands for:
// it enables no level, before or after With, and a nil Observer and an
// Observer without Log both return it.
func TestNilLoggerIsSafe(t *testing.T) {
	for _, l := range []*Logger{Nop, Nop.With("k", "v")} {
		for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
			if l.Enabled(context.Background(), lv) {
				t.Errorf("Nop enables %v", lv)
			}
		}
		l.Error("x", "k", "v")
	}
	var nilObs *Observer
	if nilObs.Logger() != Nop {
		t.Error("nil Observer's Logger is not Nop")
	}
	if (&Observer{}).Logger() != Nop {
		t.Error("Logger of an Observer without Log is not Nop")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "Error": LevelError, "": LevelInfo,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

// TestConcurrentLogging is meaningful under -race: shared sink, derived
// loggers.
func TestConcurrentLogging(t *testing.T) {
	var sb safeBuilder
	l, _ := New(&sb, "json", LevelDebug)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			child := l.With("worker", i)
			for j := 0; j < 200; j++ {
				child.Info("tick", "j", j)
			}
		}(i)
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("interleaved record is not valid JSON: %v\n%q", err, line)
		}
	}
}

// safeBuilder is a mutex-guarded strings.Builder; the logger serializes
// writes itself, but the final read in the test races a plain Builder.
type safeBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *safeBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *safeBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
