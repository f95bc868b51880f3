package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval. Spans form a tree through Parent (0 is
// the root's parent) and group by Run, the measured unit they belong to.
//
// A span with Count > 0 is an aggregate: the summed duration of Count
// calls into a hot leaf function (a Decide or a States call) made under
// Parent. Recording each of those calls separately would cost millions
// of spans per traced unit; the traced pass runs one worker, so the calls
// never overlap and their summed duration equals the length of their
// union. An aggregate's Start and End are zero; Dur holds the sum.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Count  int64         `json:"count,omitempty"`
	Dur    time.Duration `json:"dur_ns"`
}

// Recorder keeps spans in memory until Write.
type Recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []Span
}

// NewRecorder starts a recorder whose span times count from now.
func NewRecorder() *Recorder { return &Recorder{base: time.Now()} }

// Start opens a span and returns its ID.
func (r *Recorder) Start(name string, parent, run int) int {
	now := time.Since(r.base)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name, Start: now})
	return id
}

// End closes the span.
func (r *Recorder) End(id int) {
	now := time.Since(r.base)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	s.Dur = now - s.Start
}

// Aggregate records count leaf calls of total duration under parent.
func (r *Recorder) Aggregate(name string, parent, run int, total time.Duration, count int64) {
	if count == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Run: run, Name: name, Count: count, Dur: total})
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Write stores the spans as JSON.
func (r *Recorder) Write(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// interval is a half-open [lo, hi) stretch of time.
type interval struct{ lo, hi time.Duration }

// unionLength returns the total length covered by the intervals, counting
// overlapping stretches once.
func unionLength(ivs []interval) time.Duration {
	ivs = append([]interval(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if open && iv.lo <= cur.hi {
			cur.hi = max(cur.hi, iv.hi)
			continue
		}
		if open {
			total += cur.hi - cur.lo
		}
		cur, open = iv, true
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the union
// of its timed children's intervals (clipped to the span) minus the sum
// of its aggregate children. Aggregates have no children; their self
// time is their duration.
func selfTimes(spans []Span) map[int]time.Duration {
	byID := make(map[int]Span, len(spans))
	kids := map[int][]Span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.Count > 0 {
			self[s.ID] = s.Dur
			continue
		}
		var ivs []interval
		var agg time.Duration
		for _, c := range kids[s.ID] {
			if c.Count > 0 {
				agg += c.Dur
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		self[s.ID] = max(0, s.Dur-unionLength(ivs)-agg)
	}
	return self
}

// layerTotals sums self time, durations and call counts per span name.
type layerTotals struct {
	self  map[string]time.Duration
	dur   map[string]time.Duration
	count map[string]int64
}

func totalsByName(spans []Span) layerTotals {
	self := selfTimes(spans)
	t := layerTotals{self: map[string]time.Duration{}, dur: map[string]time.Duration{}, count: map[string]int64{}}
	for _, s := range spans {
		t.self[s.Name] += self[s.ID]
		t.dur[s.Name] += s.Dur
		if s.Count > 0 {
			t.count[s.Name] += s.Count
		} else {
			t.count[s.Name]++
		}
	}
	return t
}
