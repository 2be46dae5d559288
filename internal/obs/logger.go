package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity. Records below the logger's level are dropped.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel parses "debug", "info", "warn", or "error".
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
	return LevelInfo, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// Format selects the line encoding of a Logger.
type Format int

const (
	FormatText Format = iota // level=info msg="..." key=value
	FormatJSON               // {"level":"info","msg":"...","key":"value"}
)

// ParseFormat parses "text" or "json".
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "text", "":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatText, fmt.Errorf("unknown log format %q (want text|json)", s)
}

// Field is one key/value pair attached to a log line or audit event. Values
// are pre-rendered to strings so emitting a field never allocates through
// reflection at write time.
type Field struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// F builds a Field, rendering the value with strconv fast paths.
func F(key string, value any) Field {
	return Field{Key: key, Value: renderValue(value)}
}

func renderValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case time.Duration:
		return x.String()
	case error:
		return x.Error()
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprint(v)
	}
}

// Logger writes leveled, structured lines. The zero value and the nil
// pointer are both valid no-op loggers, so call sites never need nil checks.
type Logger struct {
	level atomic.Int32
	fmt   Format
	base  []Field // fields attached by With, emitted on every line

	mu   sync.Mutex
	w    io.Writer
	emit func(line string) // overrides w when set (printf adapter)

	now func() time.Time // test hook; time.Now when nil
}

// NewLogger returns a logger writing to w at the given level and format.
func NewLogger(w io.Writer, level Level, format Format) *Logger {
	l := &Logger{fmt: format, w: w}
	l.level.Store(int32(level))
	return l
}

// NewStderrLogger returns a text logger on os.Stderr at LevelInfo.
func NewStderrLogger() *Logger { return NewLogger(os.Stderr, LevelInfo, FormatText) }

// NewPrintfLogger adapts a printf-style sink, such as testing.T.Logf, into a
// Logger. Lines are rendered in text format and handed to f without a
// trailing newline.
func NewPrintfLogger(f func(format string, args ...any), level Level) *Logger {
	l := &Logger{fmt: FormatText, emit: func(line string) { f("%s", line) }}
	l.level.Store(int32(level))
	return l
}

// SetLevel changes the logger's level at runtime.
func (l *Logger) SetLevel(level Level) {
	if l != nil {
		l.level.Store(int32(level))
	}
}

// Enabled reports whether records at the given level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && (l.w != nil || l.emit != nil) && level >= Level(l.level.Load())
}

// With returns a logger that attaches the given fields to every line.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil || len(fields) == 0 {
		return l
	}
	nl := &Logger{fmt: l.fmt, w: l.w, emit: l.emit, now: l.now}
	nl.level.Store(l.level.Load())
	nl.base = append(append([]Field(nil), l.base...), fields...)
	return nl
}

func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }
func (l *Logger) Info(msg string, fields ...Field)  { l.log(LevelInfo, msg, fields) }
func (l *Logger) Warn(msg string, fields ...Field)  { l.log(LevelWarn, msg, fields) }
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

func (l *Logger) log(level Level, msg string, fields []Field) {
	if !l.Enabled(level) {
		return
	}
	ts := time.Now
	if l.now != nil {
		ts = l.now
	}
	var b strings.Builder
	b.Grow(96 + 24*(len(l.base)+len(fields)))
	stamp := ts().UTC().Format("2006-01-02T15:04:05.000Z")
	if l.fmt == FormatJSON {
		b.WriteString(`{"ts":"`)
		b.WriteString(stamp)
		b.WriteString(`","level":"`)
		b.WriteString(level.String())
		b.WriteString(`","msg":`)
		b.WriteString(strconv.Quote(msg))
		for _, f := range l.base {
			writeJSONField(&b, f)
		}
		for _, f := range fields {
			writeJSONField(&b, f)
		}
		b.WriteString("}")
	} else {
		b.WriteString("ts=")
		b.WriteString(stamp)
		b.WriteString(" level=")
		b.WriteString(level.String())
		b.WriteString(" msg=")
		b.WriteString(quoteIfNeeded(msg))
		for _, f := range l.base {
			writeTextField(&b, f)
		}
		for _, f := range fields {
			writeTextField(&b, f)
		}
	}
	line := b.String()
	if l.emit != nil {
		l.emit(line)
		return
	}
	l.mu.Lock()
	io.WriteString(l.w, line)
	io.WriteString(l.w, "\n")
	l.mu.Unlock()
}

func writeJSONField(b *strings.Builder, f Field) {
	b.WriteString(",")
	b.WriteString(strconv.Quote(f.Key))
	b.WriteString(":")
	b.WriteString(strconv.Quote(f.Value))
}

func writeTextField(b *strings.Builder, f Field) {
	b.WriteString(" ")
	b.WriteString(f.Key)
	b.WriteString("=")
	b.WriteString(quoteIfNeeded(f.Value))
}

func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '"' || c == '=' || c == '\\' || c < 0x20 {
			return strconv.Quote(s)
		}
	}
	return s
}
