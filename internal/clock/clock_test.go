package clock

import (
	"testing"
	"time"
)

func TestRealNow(t *testing.T) {
	t.Parallel()
	before := time.Now()
	got := Real{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestManual(t *testing.T) {
	t.Parallel()
	start := time.Date(2004, time.March, 25, 12, 0, 0, 0, time.UTC)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", m.Now(), start)
	}
	got := m.Advance(90 * time.Second)
	want := start.Add(90 * time.Second)
	if !got.Equal(want) || !m.Now().Equal(want) {
		t.Fatalf("Advance → %v, want %v", got, want)
	}
	later := start.Add(time.Hour)
	m.Set(later)
	if !m.Now().Equal(later) {
		t.Fatalf("Set → %v, want %v", m.Now(), later)
	}
}

func TestManualConcurrent(t *testing.T) {
	t.Parallel()
	m := NewManual(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			m.Advance(time.Millisecond)
		}
	}()
	for i := 0; i < 1000; i++ {
		_ = m.Now()
	}
	<-done
	if got := m.Now(); !got.Equal(time.Unix(0, 0).Add(time.Second)) {
		t.Fatalf("final time %v, want %v", got, time.Unix(1, 0))
	}
}

// TestManualTimerAt: a timer for an instant fires when the clock reaches
// it, however far the clock moved since that instant was computed, and at
// once for an instant already passed.
func TestManualTimerAt(t *testing.T) {
	t.Parallel()
	m := NewManual(time.Unix(0, 0))
	at := m.Now().Add(time.Minute)
	m.Advance(30 * time.Second)
	timer := NewTimerAt(m, at)
	m.Advance(29 * time.Second)
	select {
	case <-timer.C():
		t.Fatal("timer fired before its instant")
	default:
	}
	m.Advance(time.Second)
	select {
	case got := <-timer.C():
		if !got.Equal(at) {
			t.Fatalf("timer delivered %v, want %v", got, at)
		}
	default:
		t.Fatal("timer did not fire at its instant")
	}
	select {
	case <-NewTimerAt(m, at).C():
	default:
		t.Fatal("timer for a passed instant did not fire at once")
	}
}

// TestManualTimerAfterDuration: a timer for a duration fires once the
// clock has moved that far past its creation, not before.
func TestManualTimerAfterDuration(t *testing.T) {
	t.Parallel()
	m := NewManual(time.Unix(0, 0))
	timer := NewTimer(m, time.Minute)
	m.Advance(59 * time.Second)
	if !timer.Stop() {
		t.Fatal("Stop reported a pending timer as fired")
	}
	timer = NewTimer(m, time.Minute)
	m.Advance(time.Minute)
	select {
	case <-timer.C():
	default:
		t.Fatal("timer did not fire after its duration")
	}
}
