package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity. Messages below the logger's level are
// dropped before formatting.
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
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
	}
}

// Logger is a minimal leveled logger: one writer, a prefix, an
// atomically adjustable level. Background-loop noise (anti-entropy,
// backoff retries) logs at Debug so it is quiet by default and
// switchable on demand. A nil *Logger drops everything.
type Logger struct {
	mu     sync.Mutex
	w      io.Writer
	prefix string
	level  atomic.Int32
}

// NewLogger returns a logger writing "prefix: level: message" lines
// at or above level. A nil w defaults to os.Stderr.
func NewLogger(w io.Writer, prefix string, level Level) *Logger {
	if w == nil {
		w = os.Stderr
	}
	l := &Logger{w: w, prefix: prefix}
	l.level.Store(int32(level))
	return l
}

// SetLevel adjusts the threshold at runtime.
func (l *Logger) SetLevel(level Level) {
	if l != nil {
		l.level.Store(int32(level))
	}
}

// Enabled reports whether messages at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= Level(l.level.Load())
}

func (l *Logger) logf(level Level, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.prefix != "" {
		fmt.Fprintf(l.w, "%s: %s: %s\n", l.prefix, level, msg)
	} else {
		fmt.Fprintf(l.w, "%s: %s\n", level, msg)
	}
}

// Debugf logs at debug level.
func (l *Logger) Debugf(format string, args ...any) { l.logf(LevelDebug, format, args...) }

// Infof logs at info level.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

// Warnf logs at warn level.
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, format, args...) }

// Errorf logs at error level.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args...) }

// SlowQueryRecord is one structured slow-query log line: the full
// span breakdown of a query that exceeded the -slow-query-ms
// threshold, tied to the coordinator's request ID so coordinator- and
// node-side lines for the same query can be joined.
type SlowQueryRecord struct {
	RequestID string  `json:"request_id"`
	Role      string  `json:"role"` // "coordinator" or "node"
	Index     string  `json:"index,omitempty"`
	Query     string  `json:"query,omitempty"`
	TookUS    int64   `json:"took_us"`
	Quality   float64 `json:"quality,omitempty"`
	Results   int     `json:"results,omitempty"`
	// SLO is the budget controller's decision for this query, when the
	// coordinator served it adaptively.
	SLO   *SLOJSON   `json:"slo,omitempty"`
	Spans []SpanJSON `json:"spans"`
}

// SLOJSON renders one budget-controller decision in the slow-query
// log: what budget was chosen, what the curve predicted, what the
// query actually cost, and how much pressure shedding was applied.
type SLOJSON struct {
	Budget      int     `json:"budget"`
	PredictedMS float64 `json:"predicted_ms"`
	AchievedMS  float64 `json:"achieved_ms"`
	Confidence  float64 `json:"confidence"`
	ShedLevel   int     `json:"shed_level,omitempty"`
	Degraded    bool    `json:"degraded,omitempty"`
	FloorHit    bool    `json:"floor_hit,omitempty"`
}

// SpanJSON is a span rendered with microsecond offsets for the
// slow-query log.
type SpanJSON struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Detail  string `json:"detail,omitempty"`
}

// SlowQueryLog emits one JSON line per slow query to a writer.
// Disabled when nil or when threshold <= 0.
type SlowQueryLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// NewSlowQueryLog returns a slow-query log writing JSON lines to w
// (nil defaults to os.Stderr) for queries slower than threshold; a
// zero or negative threshold disables logging.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	if threshold <= 0 {
		return nil
	}
	if w == nil {
		w = os.Stderr
	}
	return &SlowQueryLog{w: w, threshold: threshold}
}

// Threshold reports the configured slow-query cutoff (0 when nil).
func (s *SlowQueryLog) Threshold() time.Duration {
	if s == nil {
		return 0
	}
	return s.threshold
}

// Record emits the trace as one JSON line if its elapsed time crossed
// the threshold. rec's TookUS and Spans are filled from t.
func (s *SlowQueryLog) Record(t *Trace, rec SlowQueryRecord) {
	if s == nil || t == nil {
		return
	}
	took := t.Elapsed()
	if took < s.threshold {
		return
	}
	rec.RequestID = t.ID
	rec.TookUS = took.Microseconds()
	for _, sp := range t.Spans() {
		rec.Spans = append(rec.Spans, SpanJSON{
			Name:    sp.Name,
			StartUS: sp.Start.Microseconds(),
			DurUS:   sp.Dur.Microseconds(),
			Detail:  sp.Detail,
		})
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Write(append(line, '\n'))
}
