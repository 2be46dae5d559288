package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() time.Time {
	return time.Date(2026, 8, 8, 12, 0, 0, 123e6, time.UTC)
}

func TestLoggerText(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelInfo, FormatText)
	l.now = fixedClock
	l.Debug("dropped")
	l.Info("pool resized", F("from", 2), F("to", 4), F("reason", "load shift"))
	want := `ts=2026-08-08T12:00:00.123Z level=info msg="pool resized" from=2 to=4 reason="load shift"` + "\n"
	if sb.String() != want {
		t.Errorf("got %q\nwant %q", sb.String(), want)
	}
}

func TestLoggerJSON(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelDebug, FormatJSON)
	l.now = fixedClock
	l.With(F("component", "gateway")).Warn("queue full", F("depth", 128))
	var rec map[string]string
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, sb.String())
	}
	for k, want := range map[string]string{
		"level": "warn", "msg": "queue full", "component": "gateway", "depth": "128",
	} {
		if rec[k] != want {
			t.Errorf("rec[%q] = %q, want %q", k, rec[k], want)
		}
	}
}

func TestLoggerLevelsAndNil(t *testing.T) {
	var l *Logger
	l.Info("no panic on nil")
	l.With(F("a", 1)).Error("still fine")
	if l.Enabled(LevelError) {
		t.Error("nil logger should not be enabled")
	}
	var sb strings.Builder
	ll := NewLogger(&sb, LevelWarn, FormatText)
	ll.Info("hidden")
	ll.Warn("shown")
	if strings.Contains(sb.String(), "hidden") || !strings.Contains(sb.String(), "shown") {
		t.Errorf("level filtering broken: %q", sb.String())
	}
	ll.SetLevel(LevelDebug)
	ll.Debug("now visible")
	if !strings.Contains(sb.String(), "now visible") {
		t.Error("SetLevel not applied")
	}
}

func TestLoggerPrintfShim(t *testing.T) {
	var lines []string
	l := NewPrintfLogger(func(format string, args ...any) {
		lines = append(lines, format)
		_ = args
	}, LevelInfo)
	l.Info("served", F("requests", 7))
	if len(lines) != 1 {
		t.Fatalf("want 1 line, got %d", len(lines))
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var mu sync.Mutex
	var sb strings.Builder
	safe := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	l := NewLogger(safe, LevelInfo, FormatText)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Info("tick", F("worker", w), F("i", i))
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	got := strings.Count(sb.String(), "\n")
	if got != 1600 {
		t.Errorf("want 1600 lines, got %d", got)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestParseLevelFormat(t *testing.T) {
	if lv, err := ParseLevel("WARN"); err != nil || lv != LevelWarn {
		t.Errorf("ParseLevel(WARN) = %v, %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
	if f, err := ParseFormat("json"); err != nil || f != FormatJSON {
		t.Errorf("ParseFormat(json) = %v, %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat(xml) should fail")
	}
}

func TestTrail(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelInfo, FormatText)
	tr := NewTrail(3, l)
	for i := 0; i < 5; i++ {
		tr.Record(float64(i*100), "tick", "tick happened", F("i", i))
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("want 3 retained events, got %d", len(evs))
	}
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Errorf("want seqs 3..5, got %d..%d", evs[0].Seq, evs[2].Seq)
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
	if got := strings.Count(sb.String(), "tick happened"); got != 5 {
		t.Errorf("mirrored lines = %d, want 5", got)
	}
	var nilTrail *Trail
	nilTrail.Record(0, "x", "ignored")
	if nilTrail.Events() != nil || nilTrail.Dropped() != 0 {
		t.Error("nil trail should be inert")
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(2, 2)
	if _, sampled := r.Next(); sampled {
		t.Error("seq 1 of every-2 should not sample")
	}
	if seq, sampled := r.Next(); !sampled || seq != 2 {
		t.Errorf("seq 2 should sample, got seq=%d sampled=%v", seq, sampled)
	}
	for i := 0; i < 3; i++ {
		i := i
		r.Record(func(tr *Trace) {
			tr.Seq = uint64(i + 1)
			tr.Outcome = "served"
			tr.Spans = append(tr.Spans, Span{Name: "admit", StartMs: 1, EndMs: 2})
		})
	}
	got := r.Traces()
	if len(got) != 2 {
		t.Fatalf("want 2 traces, got %d", len(got))
	}
	if got[0].Seq != 3 || got[1].Seq != 2 {
		t.Errorf("want newest-first seqs 3,2, got %d,%d", got[0].Seq, got[1].Seq)
	}
	if len(got[0].Spans) != 1 || got[0].Spans[0].Name != "admit" {
		t.Errorf("spans not copied: %+v", got[0].Spans)
	}
	if id := TraceID(255, ""); id != "tff" {
		t.Errorf("TraceID = %q", id)
	}
	if id := TraceID(255, "client-id"); id != "client-id" {
		t.Errorf("adopted TraceID = %q", id)
	}
	var nilRing *TraceRing
	if _, sampled := nilRing.Next(); sampled {
		t.Error("nil ring should never sample")
	}
	nilRing.Record(func(*Trace) {})
	if nilRing.Traces() != nil {
		t.Error("nil ring should be inert")
	}
}

func TestServePprof(t *testing.T) {
	addr, stop, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("goroutine profile = %d, want 200", resp.StatusCode)
	}
}
