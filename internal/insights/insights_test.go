package insights

import (
	"fmt"
	"testing"
)

func entry(q string, durUS int64) *Entry {
	return &Entry{Query: q, DurUS: durUS, Verdict: "empty", CacheTier: "miss"}
}

func TestRetentionPolicy(t *testing.T) {
	l := New(4)
	kept := 0
	for i := 0; i < 16; i++ {
		if l.Record(entry(fmt.Sprintf("q%d", i), 10)) {
			kept++
		}
	}
	if kept != 4 {
		t.Errorf("1-in-4 sampler kept %d of 16, want 4", kept)
	}
	slow := entry("slow", 5000)
	slow.Slow = true
	if !l.Record(slow) {
		t.Error("slow query must always be captured")
	}
	e := entry("failed", 10)
	e.Error = "boom"
	if !l.Record(e) {
		t.Error("failed query must always be captured")
	}
	if off := New(0); off.Record(entry("q", 10)) {
		t.Error("a log without a sampler kept a fast, successful query")
	}
}

func TestRecentNewestFirstAndBound(t *testing.T) {
	l := New(1)
	for i := 0; i < bufferSize+20; i++ {
		l.Record(entry(fmt.Sprintf("q%d", i), 10))
	}
	got := l.Recent(0)
	if len(got) != bufferSize {
		t.Fatalf("ring retained %d, want %d", len(got), bufferSize)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Seq <= got[i].Seq {
			t.Fatalf("entries not newest first: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
	if want := fmt.Sprintf("q%d", bufferSize+19); got[0].Query != want {
		t.Errorf("newest = %q, want %s", got[0].Query, want)
	}
	if n := len(l.Recent(3)); n != 3 {
		t.Errorf("Recent(3) = %d entries", n)
	}
}

func TestNilLogIsInert(t *testing.T) {
	var l *Log
	if l.Enabled() {
		t.Error("nil log reports enabled")
	}
	if l.Record(entry("q", 1)) {
		t.Error("nil log recorded")
	}
	if l.Recent(5) != nil {
		t.Error("nil log returned entries")
	}
}
