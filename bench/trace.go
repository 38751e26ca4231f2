package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a public entry point of the system, as the
// benchmark saw it from outside. Spans of one campaign share Campaign;
// Parent is the id of the span that made the call (0 for a root).
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Campaign string `json:"campaign"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when not tracing).
func (tr *tracer) begin(parent int64, name, campaign string) int64 {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Campaign: campaign, StartNS: now})
	return id
}

// end closes the span begin returned.
func (tr *tracer) end(id int64) {
	if tr == nil || id == 0 {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id-1].EndNS = now
	tr.mu.Unlock()
}

func (tr *tracer) snapshot() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// writeJSONL writes one span per line.
func (tr *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.snapshot() {
		if err := enc.Encode(s); err != nil {
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

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	reach := parent.StartNS
	for _, v := range ivs {
		if lo := max(v.lo, reach); v.hi > lo {
			total += v.hi - lo
			reach = v.hi
		}
	}
	return total
}
