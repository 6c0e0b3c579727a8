package invoke

import (
	"context"
	"strconv"

	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
)

// leafSpan opens a child span when the context already carries an active
// trace; otherwise it returns nil (End on a nil span is a no-op). Gating
// on an existing span keeps untraced background traffic out of the span
// ring — only invocations that started a trace grow trees.
func leafSpan(ctx context.Context, svc *protocol.Services, name string) *obs.Span {
	return svc.Obs.StartChild(ctx, name)
}

// logGroup commits the evidence of one protocol step (see the durability
// rule in the package comment) under a vault.append leaf span, so a traced
// run shows each durability wait it paid and how many records shared it.
func logGroup(ctx context.Context, svc *protocol.Services, entries ...store.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	sp := leafSpan(ctx, svc, "vault.append")
	sp.SetAttr("records", strconv.Itoa(len(entries)))
	err := svc.LogGroup(entries...)
	sp.End()
	return err
}
