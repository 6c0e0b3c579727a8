package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers. A layer is the package whose public function the span
// brackets; "invoke" roots bracket one Proxy.Call*.
const (
	layerInvoke    = "invoke"    // root: one Proxy.Call/CallStream, or one job submit→Wait
	layerSubmit    = "durable"   // Proxy.CallAsync until it returns the job handle
	layerSig       = "sig"       // Signer.Sign
	layerVault     = "vault"     // store.Log.Append (queue + commit + fsync)
	layerRequest   = "transport" // client side Endpoint.Request/Send
	layerHandle    = "protocol"  // server side Handler.Handle
	layerContainer = "container" // Executor.Execute
)

// span is one bracketed call into a layer. Spans of one invocation share
// Run once linkSpans has propagated it; Parent is the span that caused
// this one (0 for roots).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Party  string `json:"party,omitempty"`
	// Node names the wire endpoint the party sits behind: the party itself
	// for a dedicated organisation, the host for a hosted tenant.
	Node  string `json:"node,omitempty"`
	Run   string `json:"run,omitempty"`
	Msg   string `json:"msg,omitempty"` // envelope id, links a handle span to its request span
	Start int64  `json:"start_ns"`      // since tracer epoch
	End   int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps finished spans in memory. It records only while on; the
// decorators check it first, so a disabled tracer costs one atomic load
// per decorated call.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	shards [32]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; the zero value (tracer off) ends as a no-op.
type open struct {
	t     *tracer
	s     span
	start time.Time
}

func (t *tracer) start(layer, name, party, node string) open {
	if !t.on.Load() {
		return open{}
	}
	return open{t: t, s: span{Layer: layer, Name: name, Party: party, Node: node}, start: time.Now()}
}

// end finishes the span. run and msg may be empty.
func (o open) end(run, msg string) {
	if o.t == nil {
		return
	}
	end := time.Now()
	o.s.Run, o.s.Msg = run, msg
	o.s.Start = o.start.Sub(o.t.epoch).Nanoseconds()
	o.s.End = end.Sub(o.t.epoch).Nanoseconds()
	sh := &o.t.shards[uint64(o.s.End)%uint64(len(o.t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, o.s)
	sh.mu.Unlock()
}

// take returns every recorded span, numbered and linked, and resets the
// tracer's memory.
func (t *tracer) take() []span {
	var all []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		all = append(all, sh.spans...)
		sh.spans = nil
		sh.mu.Unlock()
	}
	linkSpans(all)
	return all
}

// parentLayer reports whether a span of layer p may cause a span of
// layer c.
func parentLayer(p, c string) bool {
	switch c {
	case layerInvoke:
		return false
	case layerHandle:
		return p == layerRequest
	case layerSubmit:
		return p == layerInvoke
	default: // sig, vault, transport request, container
		return p == layerInvoke || p == layerHandle || p == layerSubmit || p == layerContainer
	}
}

// linkSpans numbers the spans in start order and sets each span's Parent:
//
//  1. a handle span's parent is the request span carrying the same
//     envelope id (the cross-party edge);
//  2. any other span's parent is the innermost span behind the same wire
//     node that contains it and may cause it, preferring one of the same
//     run.
//
// Most spans know their run — roots from the result, requests and
// handles from the message header, appends from the token, executions
// from the snapshot — so rule 2 is exact for them. Signer.Sign sees only a
// digest, and a coalesced batch envelope carries many runs: those spans
// go to the innermost containing candidate, which is a guess when callers
// overlap. Per-parent self times are therefore approximate on concurrent
// workloads, while their sums stay close: a misplaced child only changes
// the total where it overlaps the wrong parent's own children.
//
// Run identifiers then flow from spans that know them to the rest of
// their tree.
func linkSpans(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	for i := range spans {
		spans[i].ID = i + 1
	}
	reqByMsg := make(map[string]int)
	for i := range spans {
		if spans[i].Layer == layerRequest && spans[i].Msg != "" {
			if _, dup := reqByMsg[spans[i].Msg]; !dup { // a retransmission keeps its id; the first attempt owns it
				reqByMsg[spans[i].Msg] = i
			}
		}
	}
	// Spans are sorted by start, so a candidate parent always precedes its
	// child in byNode.
	byNode := make(map[string][]int)
	for i := range spans {
		c := &spans[i]
		switch {
		case c.Layer == layerInvoke:
		case c.Layer == layerHandle:
			if r, ok := reqByMsg[c.Msg]; ok && c.Msg != "" && contains(&spans[r], c) {
				c.Parent = spans[r].ID
			}
		default:
			c.Parent = innermost(spans, byNode[c.Node], c)
		}
		byNode[c.Node] = append(byNode[c.Node], i)
	}
	// Propagate runs: up from children that know theirs, then down.
	for i := len(spans) - 1; i >= 0; i-- {
		if c := &spans[i]; c.Run != "" && c.Parent != 0 && spans[c.Parent-1].Run == "" {
			spans[c.Parent-1].Run = c.Run
		}
	}
	for i := range spans {
		if c := &spans[i]; c.Run == "" && c.Parent != 0 {
			c.Run = spans[c.Parent-1].Run
		}
	}
}

func contains(p, c *span) bool { return p.Start <= c.Start && c.End <= p.End && p.ID != c.ID }

// innermost scans candidates (indexes into spans, in start order) from
// the most recently started back, returning the id of the first that
// contains c, may cause it and is of c's run; failing that, the first
// that contains it and may cause it.
func innermost(spans []span, candidates []int, c *span) int {
	fallback := 0
	// The scan stops after a bounded look-back so linking stays linear on
	// long traces; a parent is never that many spans behind its child.
	const lookBack = 1024
	for k := len(candidates) - 1; k >= 0 && k >= len(candidates)-lookBack; k-- {
		p := &spans[candidates[k]]
		if !parentLayer(p.Layer, c.Layer) || !contains(p, c) {
			continue
		}
		if c.Run == "" || p.Run == c.Run {
			return p.ID
		}
		if fallback == 0 && p.Run == "" {
			fallback = p.ID
		}
	}
	return fallback
}

// selfTimes returns, per span id, the span's duration minus the part of
// it that its child spans cover. Overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for i := range spans {
		c := &spans[i]
		if c.Parent != 0 {
			children[c.Parent] = append(children[c.Parent], [2]int64{c.Start, c.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		out[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
