package sched

import (
	"math"

	"tightsched/internal/analytic"
	"tightsched/internal/app"
)

// incremental is a passive heuristic of Section VI.A: it keeps the current
// configuration until the engine clears it (a worker went DOWN or the
// iteration completed), and otherwise builds a configuration by assigning
// the m tasks one at a time, each to the UP worker that optimizes the
// heuristic's criterion over the partial configuration.
//
// The scratch fields are reused across Decide calls; heuristic instances
// are therefore not safe for concurrent use (each simulation builds its
// own, see Build).
type incremental struct {
	env  *Env
	crit Criterion
	name string

	ups     []int
	needs   []int // fresh comm need of each enrolled worker
	expComm []float64
	speeds  []int
	se      *analytic.SetEval

	// built records a first fresh build; the trace is allocated on the
	// second, so an instance that builds once pays nothing for it.
	built bool
	trace buildTrace
}

// buildTrace remembers, per greedy step k and processor q, the (P, E)
// that q scored at step k of the most recent fresh builds. A candidate's
// (P, E) at step k is a pure function of
//
//   - the prefix: the winners of steps 0..k-1 with their retention, which
//     fix the partial assignment, its set, workload and comm needs;
//   - q's own message-granularity retention (what commNeedFresh reads);
//   - the instance's constant Env.
//
// It reads neither the rest of the UP set nor Elapsed (which enters only
// through Value.T in Criterion.Score). Each step carries a stamp that is
// bumped whenever its prefix may have changed; an entry is reused when
// its stamp and q's retention both match, so a rebuild rescores only the
// candidates whose inputs changed and its result is bit-identical to a
// from-scratch build.
//
// The trace is one flat slice of m rows of p+1 entries: row k holds the
// candidates of step k, then the step's own record (its stamp, winner
// and the winner's retention).
type buildTrace []traceEntry

// traceEntry is one stored candidate score, or a step record.
type traceEntry struct {
	P, E  float64
	ret   int    // retentionOf the candidate (step record: of the winner)
	stamp uint32 // the step stamp it was scored under; 0 never matches
	// winner is the step's winner in a step record, -1 once the step's
	// prefix is no longer the recorded one.
	winner int32
}

// retentionOf packs the retention a fresh build reads (see
// commNeedFresh) into one comparable value.
func retentionOf(w WorkerInfo) int {
	r := w.DataHeld << 1
	if w.HasProgram {
		r |= 1
	}
	return r
}

// newBuildTrace returns an empty trace for m steps over p processors.
func newBuildTrace(m, p int) buildTrace {
	tr := make(buildTrace, m*(p+1))
	for k := 0; k < m; k++ {
		tr[k*(p+1)+p] = traceEntry{stamp: 1, winner: -1}
	}
	return tr
}

// Name implements Heuristic.
func (h *incremental) Name() string { return h.name }

// Decide implements Heuristic.
func (h *incremental) Decide(v *View) app.Assignment {
	if v.Current != nil {
		return v.Current
	}
	return h.build(v)
}

// DecideSpan implements SpanDecider. The heuristic is passive: with a
// configuration in place it always keeps it. A non-nil fresh build is
// adopted at the span's first slot, after which the keep branch applies;
// a nil build stays nil while the UP set and retention stand still,
// since whether a build is nil does not read Elapsed (only the IY base
// does, and its scores P/(T+E) never fall to -Inf).
func (h *incremental) DecideSpan(v *View, n int64) (app.Assignment, int64) {
	return h.Decide(v), n
}

// build builds an assignment greedily, consulting the batch decision
// cache first when one is installed: a fresh build is a pure function of
// the cache key (criterion, UP set, fresh-build retention, elapsed under
// CritY), so a hit returns exactly the assignment this instance would
// have built — see DecisionCache.
func (h *incremental) build(v *View) app.Assignment {
	dc := h.env.Decisions
	if dc == nil {
		return h.buildFresh(v)
	}
	if asg, ok := dc.lookup(h.env, h.crit, v); ok {
		return asg
	}
	asg := h.buildFresh(v)
	dc.store(asg)
	return asg
}

// buildFresh builds an assignment greedily. It returns nil when the UP
// workers cannot host m tasks, or when at some step every candidate
// scores -Inf (an infinite E under the IE base).
//
// Cost: m assignment steps over at most p candidates each. A candidate is
// rescored only when the build trace cannot vouch for its stored (P, E):
// on the instance's first build, at steps whose prefix changed since the
// trace recorded them, and for processors whose retention changed.
// Scoring takes a set-statistics lookup (a memo hit after first sight of
// the set) plus O(|S|) for the communication estimate; a reused
// candidate costs one criterion score. Only the returned assignment and,
// once per instance, the trace are allocated; everything else lives in
// the heuristic's scratch buffers.
func (h *incremental) buildFresh(v *View) app.Assignment {
	env := h.env
	m := env.App.Tasks
	h.ups = upWorkersInto(h.ups, v.States)
	ups := h.ups
	if capacityOf(env, ups) < m {
		return nil
	}

	p := env.Platform.Size()
	if h.speeds == nil {
		h.speeds = env.Platform.Speeds()
	}
	speeds := h.speeds
	if cap(h.needs) < p {
		h.needs = make([]int, p)
		h.expComm = make([]float64, p)
	}
	needs, expComm := h.needs[:p], h.expComm[:p]
	for i := range needs {
		needs[i] = 0
		expComm[i] = 0
	}
	if h.se == nil {
		h.se = env.Analytic.NewSetEval()
	} else {
		h.se.Reset()
	}
	se := h.se
	if h.trace == nil && h.built {
		h.trace = newBuildTrace(m, p)
	}
	h.built = true
	asg := make(app.Assignment, p)

	workload := 0
	totalNeed := 0
	elapsed := float64(v.Elapsed)
	diverged := false

	for task := 0; task < m; task++ {
		var step *traceEntry
		var row []traceEntry
		if h.trace != nil {
			row = h.trace[task*(p+1) : task*(p+1)+p]
			step = &h.trace[task*(p+1)+p]
			if diverged {
				step.stamp++
				step.winner = -1
				if step.stamp == 0 {
					// Wrapped: forget the row so no old stamp matches.
					clear(row)
					step.stamp = 1
				}
			}
		}
		bestQ := -1
		bestScore := math.Inf(-1)
		for _, q := range ups {
			if asg[q] >= env.Platform.Procs[q].Capacity {
				continue
			}
			val := Value{T: elapsed}
			r := retentionOf(v.Workers[q])
			if row != nil && row[q].stamp == step.stamp && row[q].ret == r {
				val.P, val.E = row[q].P, row[q].E
			} else {
				val.P, val.E = scoreCandidate(env, v.Workers[q], se, asg, q,
					speeds, workload, needs, expComm, totalNeed)
				if row != nil {
					row[q] = traceEntry{P: val.P, E: val.E, ret: r, stamp: step.stamp}
				}
			}
			if score := h.crit.Score(val); score > bestScore {
				bestScore = score
				bestQ = q
			}
		}
		if bestQ < 0 {
			return nil
		}
		if step != nil {
			// A different winner (or the same one under other retention)
			// changes every later step's prefix: their stamps are bumped
			// on arrival, which also clears their recorded winners so a
			// build that stops early cannot leave a stale one behind.
			if r := retentionOf(v.Workers[bestQ]); int(step.winner) != bestQ || step.ret != r {
				step.winner, step.ret = int32(bestQ), r
				diverged = true
			}
		}
		if !se.Contains(bestQ) {
			se.Add(bestQ)
		}
		asg[bestQ]++
		totalNeed -= needs[bestQ]
		needs[bestQ] = commNeedFresh(env, v.Workers[bestQ], asg[bestQ])
		totalNeed += needs[bestQ]
		expComm[bestQ] = env.expectedComm(bestQ, needs[bestQ])
		if l := asg[bestQ] * speeds[bestQ]; l > workload {
			workload = l
		}
	}
	return asg
}

// capacityOf returns the total task capacity of the given workers, capped
// at the application size to avoid overflow with unbounded capacities.
func capacityOf(env *Env, workers []int) int {
	m := env.App.Tasks
	total := 0
	for _, q := range workers {
		c := env.Platform.Procs[q].Capacity
		if c > m {
			c = m
		}
		total += c
		if total >= m {
			return m
		}
	}
	return total
}

// scoreCandidate estimates (P, E) for assigning one more task to worker q,
// whose retention is worker, on top of the partial configuration
// (asg, se).
// The criterion's score follows from Value{P, E, T: Elapsed}; nothing
// here reads Elapsed or any other processor's retention, which is what
// lets buildFresh reuse the result (see buildTrace).
func scoreCandidate(env *Env, worker WorkerInfo, se *analytic.SetEval, asg app.Assignment,
	q int, speeds []int, workload int, needs []int, expComm []float64,
	totalNeed int) (p, e float64) {

	x := asg[q] + 1
	w := workload
	if l := x * speeds[q]; l > w {
		w = l
	}
	needQ := commNeedFresh(env, worker, x)
	expQ := env.expectedComm(q, needQ)

	// E_comm over S ∪ {q} with q's need replaced.
	maxSingle := expQ
	for _, mq := range se.Members() {
		if mq != q && expComm[mq] > maxSingle {
			maxSingle = expComm[mq]
		}
	}
	total := totalNeed - needs[q] + needQ
	ecomm := maxSingle
	if agg := float64(total) / float64(env.Platform.Ncom); agg > ecomm {
		ecomm = agg
	}

	// P_comm over S ∪ {q}.
	pcomm := 1.0
	inSet := se.Contains(q)
	if !inSet {
		pcomm = env.Analytic.Procs[q].SurviveQ(ecomm)
	}
	for _, mq := range se.Members() {
		pcomm *= env.Analytic.Procs[mq].SurviveQ(ecomm)
	}

	var st analytic.SetStats
	var powv float64
	if inSet {
		st, powv = se.StatsPow(w)
	} else {
		st, powv = se.CandidateStatsPow(q, w)
	}
	psucc, ecomp := env.successCompletionPow(st, w, powv)
	return pcomm * psucc, ecomm + ecomp
}
