// Package clock abstracts time so that protocol timeouts, evidence
// timestamps and certificate validity can be tested deterministically.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time.
type Clock interface {
	Now() time.Time
}

// Real reads the system clock. The zero value is ready to use.
type Real struct{}

var _ Clock = Real{}

// Now returns the current system time.
func (Real) Now() time.Time { return time.Now() }

// Timer elapses once, delivering the elapse time on C. It is the
// clock-aware analogue of time.Timer: timers made from a Real clock are
// backed by real time.Timers, timers made from a Manual clock fire when
// the clock is advanced past their deadline — so code with flush or retry
// timers (replication catch-up, job retries, receipt waits) can be tested
// without sleeping wall-clock time.
type Timer interface {
	// C returns the channel the elapse time is delivered on.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it had not yet fired.
	Stop() bool
}

// NewTimer returns a timer that elapses d after now on clk.
func NewTimer(clk Clock, d time.Duration) Timer {
	if m, ok := clk.(*Manual); ok {
		return m.newTimer(func(now time.Time) time.Time { return now.Add(d) })
	}
	return realTimer{t: time.NewTimer(d)}
}

// NewTimerAt returns a timer that elapses at t on clk. Unlike a NewTimer
// for t minus a reading of clk, it is not late by however far the clock
// moved between the reading and the call.
func NewTimerAt(clk Clock, t time.Time) Timer {
	if m, ok := clk.(*Manual); ok {
		return m.newTimer(func(time.Time) time.Time { return t })
	}
	return realTimer{t: time.NewTimer(t.Sub(clk.Now()))}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

// Manual is a test clock that only moves when told to. Timers created
// from it (NewTimer) fire when Advance or Set moves the clock past their
// deadline. It is safe for concurrent use.
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	timers map[*manualTimer]struct{}
}

var _ Clock = (*Manual)(nil)

// NewManual returns a manual clock initialised to start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start, timers: make(map[*manualTimer]struct{})}
}

// Now returns the clock's current reading.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d, firing any timers whose deadline
// it passes, and returns the new reading.
func (m *Manual) Advance(d time.Duration) time.Time {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	fired := m.due(now)
	m.mu.Unlock()
	deliver(fired, now)
	return now
}

// Set moves the clock to t, firing any timers whose deadline it passes.
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	m.now = t
	fired := m.due(t)
	m.mu.Unlock()
	deliver(fired, t)
}

// due removes and returns the timers due at now (mu held).
func (m *Manual) due(now time.Time) []*manualTimer {
	var fired []*manualTimer
	for t := range m.timers {
		if !t.deadline.After(now) {
			fired = append(fired, t)
			delete(m.timers, t)
		}
	}
	return fired
}

func deliver(fired []*manualTimer, now time.Time) {
	for _, t := range fired {
		t.ch <- now
	}
}

// newTimer returns a timer whose deadline is deadline(now), read under
// the clock's lock.
func (m *Manual) newTimer(deadline func(now time.Time) time.Time) *manualTimer {
	t := &manualTimer{m: m, ch: make(chan time.Time, 1)}
	m.mu.Lock()
	t.deadline = deadline(m.now)
	if !t.deadline.After(m.now) {
		now := m.now
		m.mu.Unlock()
		t.ch <- now
		return t
	}
	if m.timers == nil {
		m.timers = make(map[*manualTimer]struct{})
	}
	m.timers[t] = struct{}{}
	m.mu.Unlock()
	return t
}

// manualTimer is a Timer driven by a Manual clock. Its channel is
// buffered, so firing never blocks Advance.
type manualTimer struct {
	m        *Manual
	deadline time.Time
	ch       chan time.Time
}

func (t *manualTimer) C() <-chan time.Time { return t.ch }

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if _, pending := t.m.timers[t]; pending {
		delete(t.m.timers, t)
		return true
	}
	return false
}
