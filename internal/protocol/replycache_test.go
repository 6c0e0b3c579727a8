package protocol

import (
	"testing"

	"nonrep/internal/id"
)

// TestReplyCacheBounded: the cache keeps the most recent maxCachedReplies
// replies. Past the bound the oldest goes first, a reply put again under
// its key keeps its place, and the cache never holds more.
func TestReplyCacheBounded(t *testing.T) {
	t.Parallel()
	c := NewReplyCache()
	runs := make([]id.Run, maxCachedReplies+2)
	for i := range runs {
		runs[i] = id.NewRun()
	}
	for _, run := range runs[:maxCachedReplies] {
		c.Put(run, 1, &Message{Run: run})
	}
	// Replacing a cached reply neither evicts nor moves it.
	c.Put(runs[0], 1, &Message{Run: runs[0], Kind: "again"})
	if got, ok := c.Get(runs[0], 1); !ok || got.Kind != "again" {
		t.Fatalf("replaced reply = %+v, %v", got, ok)
	}
	for _, run := range runs[maxCachedReplies:] {
		c.Put(run, 1, &Message{Run: run})
	}
	for i, run := range runs {
		_, ok := c.Get(run, 1)
		if want := i >= 2; ok != want {
			t.Fatalf("reply %d cached = %v, want %v", i, ok, want)
		}
	}
	if c.t.Len() != maxCachedReplies {
		t.Fatalf("cache holds %d replies; bound %d", c.t.Len(), maxCachedReplies)
	}
}
