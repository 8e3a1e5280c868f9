package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity. The zero value is LevelInfo, so a zero-configured
// logger defaults to the conventional production level.
type Level int32

const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the canonical lower-case level name.
func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "debug"
	case l == LevelInfo:
		return "info"
	case l == LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel converts a level name ("debug", "info", "warn", "error",
// case-insensitive) into a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// Logger is a leveled structured logger writing one line per record, either
// as readable text or as JSON. It is safe for concurrent use; loggers
// derived with With share the sink, mutex, and level with their parent. A
// nil *Logger is a valid no-op logger: every method is nil-receiver safe.
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	level *atomic.Int32
	json  bool
	attrs []any // bound key/value pairs, flattened

	// now is the clock; overridable in tests for stable output.
	now func() time.Time
}

// New builds a logger writing to w. format selects the encoder, "text"
// (default when empty) or "json". Records below level are dropped.
func New(w io.Writer, format string, level Level) (*Logger, error) {
	var jsonEnc bool
	switch format {
	case "", "text":
	case "json":
		jsonEnc = true
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	l := &Logger{
		mu:    &sync.Mutex{},
		w:     w,
		level: &atomic.Int32{},
		json:  jsonEnc,
		now:   time.Now,
	}
	l.level.Store(int32(level))
	return l, nil
}

// SetLevel changes the minimum level at runtime (concurrency-safe).
func (l *Logger) SetLevel(level Level) {
	if l != nil {
		l.level.Store(int32(level))
	}
}

// Enabled reports whether records at the given level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && int32(level) >= l.level.Load()
}

// With returns a logger that prepends the given key/value pairs to every
// record. The child shares the parent's sink and level.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil || len(kv) == 0 {
		return l
	}
	child := *l
	child.attrs = append(append([]any(nil), l.attrs...), kv...)
	return &child
}

// Debug, Info, Warn, and Error emit one record at the named level. kv is a
// flat list of alternating keys and values; a trailing key without a value
// is paired with "(MISSING)".
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }
func (l *Logger) Info(msg string, kv ...any)  { l.log(LevelInfo, msg, kv) }
func (l *Logger) Warn(msg string, kv ...any)  { l.log(LevelWarn, msg, kv) }
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	ts := l.now().UTC().Format("2006-01-02T15:04:05.000Z")
	var buf []byte
	if l.json {
		buf = appendJSONRecord(buf, ts, level, msg, l.attrs, kv)
	} else {
		buf = appendTextRecord(buf, ts, level, msg, l.attrs, kv)
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	l.w.Write(buf) //nolint:errcheck // logging is best-effort by design
	l.mu.Unlock()
}

// pairs normalizes a flat kv list into (key, value) tuples.
func pairs(kv []any) [][2]any {
	out := make([][2]any, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		var v any = "(MISSING)"
		if i+1 < len(kv) {
			v = kv[i+1]
		}
		out = append(out, [2]any{kv[i], v})
	}
	return out
}

func keyString(k any) string {
	if s, ok := k.(string); ok {
		return s
	}
	return fmt.Sprint(k)
}

func appendTextRecord(buf []byte, ts string, level Level, msg string, attrs, kv []any) []byte {
	buf = append(buf, ts...)
	buf = append(buf, ' ')
	lv := strings.ToUpper(level.String())
	buf = append(buf, lv...)
	for i := len(lv); i < 5; i++ {
		buf = append(buf, ' ')
	}
	buf = append(buf, ' ')
	buf = appendTextValue(buf, msg)
	for _, p := range append(pairs(attrs), pairs(kv)...) {
		buf = append(buf, ' ')
		buf = append(buf, keyString(p[0])...)
		buf = append(buf, '=')
		buf = appendTextValue(buf, p[1])
	}
	return buf
}

// appendTextValue renders a value, quoting strings that would be ambiguous
// in key=value position.
func appendTextValue(buf []byte, v any) []byte {
	switch t := v.(type) {
	case string:
		if strings.ContainsAny(t, " \t\n\"=") || t == "" {
			return strconv.AppendQuote(buf, t)
		}
		return append(buf, t...)
	case error:
		return appendTextValue(buf, t.Error())
	case float64:
		return strconv.AppendFloat(buf, t, 'g', -1, 64)
	case float32:
		return strconv.AppendFloat(buf, float64(t), 'g', -1, 32)
	case fmt.Stringer:
		return appendTextValue(buf, t.String())
	default:
		return fmt.Append(buf, v)
	}
}

func appendJSONRecord(buf []byte, ts string, level Level, msg string, attrs, kv []any) []byte {
	buf = append(buf, `{"ts":`...)
	buf = strconv.AppendQuote(buf, ts)
	buf = append(buf, `,"level":`...)
	buf = strconv.AppendQuote(buf, level.String())
	buf = append(buf, `,"msg":`...)
	buf = strconv.AppendQuote(buf, msg)
	for _, p := range append(pairs(attrs), pairs(kv)...) {
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, keyString(p[0]))
		buf = append(buf, ':')
		buf = appendJSONValue(buf, p[1])
	}
	return append(buf, '}')
}

// appendJSONValue marshals one value, degrading to its string form when the
// value itself cannot be marshalled (channels, NaN floats, ...).
func appendJSONValue(buf []byte, v any) []byte {
	if err, ok := v.(error); ok {
		v = err.Error()
	}
	b, err := json.Marshal(v)
	if err != nil {
		return strconv.AppendQuote(buf, fmt.Sprint(v))
	}
	return append(buf, b...)
}

// ctxKey is the private context key for logger propagation.
type ctxKey struct{}

// IntoContext returns a context carrying the logger.
func IntoContext(ctx context.Context, l *Logger) context.Context {
	return context.WithValue(ctx, ctxKey{}, l)
}

// FromContext returns the logger carried by ctx, or nil (the no-op logger)
// when none was attached.
func FromContext(ctx context.Context) *Logger {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(ctxKey{}).(*Logger)
	return l
}
