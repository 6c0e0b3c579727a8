package invoke

import (
	"context"
	"strconv"

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
