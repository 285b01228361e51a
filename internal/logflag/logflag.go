// Package logflag builds structured loggers from the conventional
// -log-format/-log-level flag pair, so every command in the repo
// (replayd, replaysim) accepts the same logging knobs with the
// same spellings and error messages.
package logflag

import (
	"fmt"
	"io"
	"log/slog"
)

// ParseLevel maps a -log-level flag value to its slog level.
func ParseLevel(level string) (slog.Level, error) {
	switch level {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
}

// New builds a logger writing to w in the given format ("text" or
// "json") at the given minimum level ("debug", "info", "warn",
// "error").
func New(w io.Writer, format, level string) (*slog.Logger, error) {
	lvl, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}
