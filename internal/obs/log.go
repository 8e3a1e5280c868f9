package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Logger is the standard library's structured logger: leveled key/value
// records, safe for concurrent use, with With binding attributes to a child.
// A nil *Logger is not usable; a logger field left nil means Nop.
type Logger = slog.Logger

// Level is a log severity. The zero value is LevelInfo.
type Level = slog.Level

const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

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

// New builds a logger writing one record per line to w. format selects
// slog's handler, "text" (default when empty) or "json". Records below level
// are dropped.
func New(w io.Writer, format string, level Level) (*Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
}

// Nop is the logger that enables no level: every record is dropped before
// it is built.
var Nop = slog.New(discard{})

// discard is the handler behind Nop (slog.DiscardHandler is newer than the
// module's Go version).
type discard struct{}

func (discard) Enabled(context.Context, slog.Level) bool  { return false }
func (discard) Handle(context.Context, slog.Record) error { return nil }
func (d discard) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discard) WithGroup(string) slog.Handler           { return d }
