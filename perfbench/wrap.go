package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"tightsched/internal/app"
	"tightsched/internal/avail"
	"tightsched/internal/markov"
	"tightsched/internal/sched"
)

// This file holds the forwarding wrappers the traced pass runs the
// program through. They time calls into the sched and avail layers from
// outside the program: heuristics are registered under distinct names,
// each factory builds the real heuristic on the engine's own Env (so the
// batch decision cache stays shared), and a wrapper implements
// sched.SpanDecider or avail.RunProvider exactly when the wrapped value
// does, so the engine takes the same code paths it takes untraced.

// tracedPrefix marks the registered wrapper names.
const tracedPrefix = "traced:"

// leafCounter accumulates hot leaf calls between two flushes into
// aggregate spans.
type leafCounter struct {
	calls atomic.Int64
	ns    atomic.Int64
	units atomic.Int64 // slots walked, for the availability walk
}

func (c *leafCounter) add(d time.Duration, units int64) {
	c.calls.Add(1)
	c.ns.Add(int64(d))
	c.units.Add(units)
}

// take returns the accumulated totals and resets them.
func (c *leafCounter) take() (calls int64, total time.Duration, units int64) {
	return c.calls.Swap(0), time.Duration(c.ns.Swap(0)), c.units.Swap(0)
}

// tracer is the traced pass's shared state; wrappers built while it is
// installed report into it.
type tracer struct {
	decide, walk, fit leafCounter
	runs              atomic.Int64 // heuristic factory calls: one per simulation
	slots             atomic.Int64 // slots covered by the walk, summed over flushes
}

// active is the installed tracer; nil outside the traced pass.
var active atomic.Pointer[tracer]

// flush turns the counters into aggregate spans under parent.
func (t *tracer) flush(rec *Recorder, parent, run int) {
	if n, d, _ := t.decide.take(); n > 0 {
		rec.Aggregate("sched.decide", parent, run, d, n)
	}
	if n, d, slots := t.walk.take(); n > 0 {
		rec.Aggregate("avail.walk", parent, run, d, n)
		t.slots.Add(slots)
	}
	if n, d, _ := t.fit.take(); n > 0 {
		rec.Aggregate("avail.fit", parent, run, d, n)
	}
}

// registerTraced registers a timed twin of every named heuristic and
// model under tracedPrefix+name.
func registerTraced(heuristics, models []string) error {
	for _, name := range heuristics {
		inner := name
		err := sched.Register(tracedPrefix+inner, func(env *sched.Env) (sched.Heuristic, error) {
			h, err := sched.Build(inner, env)
			if err != nil {
				return nil, err
			}
			t := active.Load()
			if t == nil {
				return nil, fmt.Errorf("perfbench: traced heuristic %s built outside the traced pass", inner)
			}
			t.runs.Add(1)
			return wrapHeuristic(h, t), nil
		})
		if err != nil {
			return err
		}
	}
	for _, name := range models {
		inner := name
		err := avail.Register(tracedPrefix+inner, func() avail.Model {
			m, err := avail.Builtin(inner)
			if err != nil {
				panic(err) // inner was resolved before registration
			}
			return &timedModel{name: tracedPrefix + inner, inner: m}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func wrapHeuristic(h sched.Heuristic, t *tracer) sched.Heuristic {
	base := timedHeuristic{inner: h, t: t}
	if sd, ok := h.(sched.SpanDecider); ok {
		return &timedSpanHeuristic{timedHeuristic: base, span: sd}
	}
	return &base
}

type timedHeuristic struct {
	inner sched.Heuristic
	t     *tracer
}

func (h *timedHeuristic) Name() string { return h.inner.Name() }

func (h *timedHeuristic) Decide(v *sched.View) app.Assignment {
	start := time.Now()
	a := h.inner.Decide(v)
	h.t.decide.add(time.Since(start), 0)
	return a
}

type timedSpanHeuristic struct {
	timedHeuristic
	span sched.SpanDecider
}

func (h *timedSpanHeuristic) DecideSpan(v *sched.View, n int64) (app.Assignment, int64) {
	start := time.Now()
	a, k := h.span.DecideSpan(v, n)
	h.t.decide.add(time.Since(start), 0)
	return a, k
}

// timedModel forwards an availability model. Its Name is the wrapped
// model's when it is handed to a sweep directly, and the registered
// traced name when it is resolved through the registry (the online grid
// names its model); the benchmark maps that name back before rendering.
type timedModel struct {
	name  string
	inner avail.Model
}

func (m *timedModel) Name() string { return m.name }

func (m *timedModel) tracer() *tracer {
	if t := active.Load(); t != nil {
		return t
	}
	panic("perfbench: traced model used outside the traced pass")
}

func (m *timedModel) Provider(base []markov.Matrix, seed uint64, allUp bool) avail.StateProvider {
	p := m.inner.Provider(base, seed, allUp)
	tp := timedProvider{inner: p, t: m.tracer()}
	if rp, ok := p.(avail.RunProvider); ok {
		return &timedRunProvider{timedProvider: tp, run: rp}
	}
	return &tp
}

func (m *timedModel) EstimatorMatrices(base []markov.Matrix) []markov.Matrix {
	t := m.tracer()
	start := time.Now()
	out := m.inner.EstimatorMatrices(base)
	t.fit.add(time.Since(start), 0)
	return out
}

type timedProvider struct {
	inner avail.StateProvider
	t     *tracer
}

func (p *timedProvider) States(slot int64, dst []markov.State) {
	start := time.Now()
	p.inner.States(slot, dst)
	p.t.walk.add(time.Since(start), 1)
}

type timedRunProvider struct {
	timedProvider
	run avail.RunProvider
}

func (p *timedRunProvider) StatesRun(from int64, dst []markov.State, limit int64) int64 {
	start := time.Now()
	n := p.run.StatesRun(from, dst, limit)
	p.t.walk.add(time.Since(start), n)
	return n
}
