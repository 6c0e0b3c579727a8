package invoke

import (
	"context"
	"strconv"
	"sync"
	"time"

	"nonrep/internal/protocol"
	"nonrep/internal/store"
)

// logGroup commits the evidence of one protocol step (see the durability
// rule in the package comment) under a vault.append leaf span, so a traced
// run shows each durability wait it paid and how many records shared it.
func logGroup(ctx context.Context, svc *protocol.Services, entries ...store.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	sp := svc.Obs.StartChild(ctx, "vault.append")
	sp.SetAttr("records", strconv.Itoa(len(entries)))
	err := svc.LogGroup(entries...)
	sp.End()
	return err
}

// spacedLog spaces the log lines about one kind of event: at most one
// every logEvery, each saying how many events it stands for.
type spacedLog struct {
	mu sync.Mutex
	// unreported counts the events since the last line, written at
	// reported.
	unreported int
	reported   time.Time
}

// due counts one event at now and reports whether a line is due, and
// how many events it stands for: those since the last line, this one
// included.
func (l *spacedLog) due(now time.Time) (unreported int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.unreported++
	if now.Sub(l.reported) < logEvery {
		return 0, false
	}
	unreported = l.unreported
	l.reported, l.unreported = now, 0
	return unreported, true
}
