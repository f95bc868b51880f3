package sched

import (
	"fmt"
	"testing"

	"tightsched/internal/analytic"
	"tightsched/internal/app"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
)

// incrementalOf returns the greedy builder behind an I* or C-H heuristic.
func incrementalOf(t testing.TB, h Heuristic) *incremental {
	t.Helper()
	switch h := h.(type) {
	case *incremental:
		return h
	case *proactive:
		return h.base
	}
	t.Fatalf("%s is not an incremental heuristic", h.Name())
	return nil
}

// opReader hands out a byte string one value at a time, then zeros.
type opReader struct {
	data []byte
	i    int
}

func (r *opReader) next() int {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return int(b)
}

func (r *opReader) more() bool { return r.i < len(r.data) }

// flakyMatrix rarely stays UP for two slots in a row (P⁺ ≈ 0.17). On a
// processor needing hundreds of slots per task, (P⁺)^{W−1} of any set
// holding it underflows to 0, so under the paper's E form the expected
// completion time is infinite and the IE base scores every candidate
// that would enroll it -Inf: that is how a greedy build stops midway
// with capacity to spare.
var flakyMatrix = markov.Matrix{
	{0.17, 0, 0.83},
	{0.5, 0.3, 0.2},
	{0.5, 0.2, 0.3},
}

// diffCoverage counts the view changes and outcomes a differential run
// went through, so the random test can assert it reached every case.
type diffCoverage struct {
	builds, nilMidway                   int
	winnerFlips, nonWinnerFlips         int
	memberRetention, nonMemberRetention int
	elapsedSteps, reentries             int
}

// diffIncremental drives one trace-carrying heuristic instance through a
// view sequence decoded from data and compares each of its greedy builds
// with the build of a brand-new instance (no trace) of the same view. It
// adds what the sequence went through to cov.
//
// The first bytes choose the heuristic (one of the 16 I*/C-H names), the
// E form, the analytic options, the platform size and seed, and the
// application size; the platform has random speeds, capacities of at
// most m and, on request, processors that make a build return nil midway. Each
// later byte is one view change: an UP flip of a winner or of a
// non-winner of the previous build, a retention change of a member or a
// non-member, an Elapsed step, or a return to an earlier view (which
// re-enters the same greedy prefix).
func diffIncremental(t testing.TB, data []byte, cov *diffCoverage) {
	t.Helper()
	r := &opReader{data: data}
	name := Names()[r.next()%16]
	flags := r.next()
	p := 2 + r.next()%7
	m := 1 + r.next()%6
	stream := rng.New(uint64(r.next()))

	procs := make([]platform.Processor, p)
	for q := range procs {
		procs[q] = platform.Processor{
			Speed:    1 + stream.IntN(6),
			Capacity: 1 + stream.IntN(m),
			Avail: markov.PerState(stream.Uniform(0.8, 0.99),
				stream.Uniform(0.5, 0.95), stream.Uniform(0.5, 0.95)),
		}
		if flags&4 != 0 && stream.IntN(3) == 0 {
			procs[q].Speed = 500 + stream.IntN(200)
			procs[q].Avail = flakyMatrix
		}
	}
	pl := &platform.Platform{Procs: procs, Ncom: 1 + stream.IntN(3)}
	opts := analytic.Options{DisableMemo: flags&8 != 0, Spectral: flags&16 != 0}
	env := &Env{
		Platform: pl,
		App:      app.Application{Tasks: m, Tprog: stream.IntN(4), Tdata: 1 + stream.IntN(3), Iterations: 1},
		Analytic: analytic.NewPlatformWith(pl.Matrices(), analytic.DefaultEps, opts),
		RenewalE: flags&1 != 0,
	}
	long := incrementalOf(t, MustBuild(name, env))

	v := &View{
		States:  make([]markov.State, p),
		Workers: make([]WorkerInfo, p),
	}
	for q := range v.States {
		if stream.IntN(4) == 0 {
			v.States[q] = markov.State(1 + stream.IntN(2))
		}
	}
	var saved []*View
	var last app.Assignment
	builds := 0
	for op := -1; op == -1 || r.more(); op++ {
		if op >= 0 {
			b := r.next()
			q := (b >> 3) % p
			winners, others := splitByWinner(last, p)
			switch b % 6 {
			case 0: // UP flip of a winner of the previous build
				if len(winners) > 0 {
					q = winners[q%len(winners)]
					cov.winnerFlips++
				}
				v.States[q] = flipUp(v.States[q])
			case 1: // UP flip of a non-winner
				if len(others) > 0 {
					q = others[q%len(others)]
					cov.nonWinnerFlips++
				}
				v.States[q] = flipUp(v.States[q])
			case 2, 3: // retention change of a member or a non-member
				set := others
				if b%6 == 2 {
					set = winners
				}
				if len(set) > 0 {
					q = set[q%len(set)]
					if b%6 == 2 {
						cov.memberRetention++
					} else {
						cov.nonMemberRetention++
					}
				}
				w := &v.Workers[q]
				w.HasProgram = stream.IntN(2) == 0
				w.DataHeld = stream.IntN(m + 1)
				// Partial progress is not read by a fresh build.
				w.ProgProgress = stream.IntN(3)
				w.DataProgress = stream.IntN(3)
			case 4: // Elapsed step
				v.Elapsed += int64(1 + b>>3)
				if long.crit == CritY {
					cov.elapsedSteps++
				}
			case 5: // back to an earlier view
				if len(saved) > 0 {
					v = cloneView(saved[(b>>3)%len(saved)])
					cov.reentries++
				}
			}
			v.RetentionEpoch++
		}

		got := long.buildFresh(v)
		want := incrementalOf(t, MustBuild(name, env)).buildFresh(v)
		builds++
		cov.builds++
		if !got.Equal(want) {
			t.Fatalf("%s (flags %#x): build %d after op %d differs from a fresh instance: got %v, want %v\nview: states %v workers %+v elapsed %d",
				name, flags, builds, op, got, want, v.States, v.Workers, v.Elapsed)
		}
		if got == nil && capacityOf(env, upWorkersInto(nil, v.States)) >= m {
			cov.nilMidway++
		}
		last = got
		if len(saved) < 4 {
			saved = append(saved, cloneView(v))
		} else {
			saved[builds%4] = cloneView(v)
		}
	}
}

// cloneView returns a copy of v that shares no slice with it.
func cloneView(v *View) *View {
	c := *v
	c.States = append([]markov.State(nil), v.States...)
	c.Workers = append([]WorkerInfo(nil), v.Workers...)
	return &c
}

// splitByWinner partitions the processors into those the assignment
// uses and the rest.
func splitByWinner(asg app.Assignment, p int) (winners, others []int) {
	for q := 0; q < p; q++ {
		if asg != nil && asg[q] > 0 {
			winners = append(winners, q)
		} else {
			others = append(others, q)
		}
	}
	return winners, others
}

func flipUp(s markov.State) markov.State {
	if s == markov.Up {
		return markov.Down
	}
	return markov.Up
}

// TestIncrementalBuildMatchesFresh is the differential test of the build
// trace: over random view sequences, for every I*/C-H heuristic and both
// E forms, each rebuild of a long-lived instance equals a brand-new
// instance's build of the same view.
func TestIncrementalBuildMatchesFresh(t *testing.T) {
	stream := rng.New(14)
	var cov diffCoverage
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		data := make([]byte, 8+stream.IntN(40))
		for j := range data {
			data[j] = byte(stream.IntN(256))
		}
		data[0] = byte(i % 16)
		data[1] = byte(i / 16 % 32)
		diffIncremental(t, data, &cov)
		seen[fmt.Sprintf("%s/%d", Names()[i%16], data[1]&1)] = true
	}
	if len(seen) != 32 {
		t.Fatalf("covered %d name/form pairs, want 32", len(seen))
	}
	for what, n := range map[string]int{
		"nil midway":            cov.nilMidway,
		"winner UP flips":       cov.winnerFlips,
		"non-winner UP flips":   cov.nonWinnerFlips,
		"member retention":      cov.memberRetention,
		"non-member retention":  cov.nonMemberRetention,
		"Elapsed steps (CritY)": cov.elapsedSteps,
		"prefix re-entries":     cov.reentries,
	} {
		if n == 0 {
			t.Errorf("no %s covered", what)
		}
	}
	t.Logf("%+v", cov)
}

// FuzzIncrementalBuild is TestIncrementalBuildMatchesFresh on fuzzed view
// sequences.
func FuzzIncrementalBuild(f *testing.F) {
	f.Add([]byte{1, 0, 4, 3, 7, 0, 1, 2, 3, 4, 5, 8, 17, 33})
	f.Add([]byte{13, 5, 6, 4, 9, 0, 0, 1, 1, 5, 2, 3, 4, 4, 5})
	f.Add([]byte{6, 20, 3, 5, 42, 4, 12, 20, 0, 5, 1, 9, 2})
	f.Add([]byte{10, 9, 5, 2, 3, 1, 6, 5, 0, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		diffIncremental(t, data, &diffCoverage{})
	})
}

// TestBuildTraceClearsStaleWinner pins the winner clearing on a stamp
// bump. Build B diverges from build A at step 0 and then stops at step 1
// (only the flaky processor has capacity left). Build C follows B's step
// 0 and then picks A's step-1 winner under the same retention. Had B
// left A's step-1 winner in the trace, C would look like it re-entered
// A's prefix and reuse step-2 scores computed on top of A's step 0.
func TestBuildTraceClearsStaleWinner(t *testing.T) {
	pl := &platform.Platform{
		Procs: []platform.Processor{
			{Speed: 3, Capacity: 2, Avail: markov.PerState(0.95, 0.9, 0.9)},
			{Speed: 1, Capacity: 1, Avail: markov.PerState(0.8, 0.9, 0.9)},
			{Speed: 600, Capacity: 3, Avail: flakyMatrix},
			{Speed: 7, Capacity: 1, Avail: markov.PerState(0.95, 0.9, 0.9)},
		},
		Ncom: 1,
	}
	env := &Env{
		Platform: pl,
		App:      app.Application{Tasks: 3, Tprog: 1, Tdata: 2, Iterations: 1},
		Analytic: analytic.NewPlatform(pl.Matrices(), analytic.DefaultEps),
	}
	up, down := markov.Up, markov.Down
	view := func(states ...markov.State) *View {
		return &View{States: states, Workers: make([]WorkerInfo, len(states))}
	}
	h := incrementalOf(t, MustBuild("IE", env))
	fresh := func(v *View) app.Assignment {
		return incrementalOf(t, MustBuild("IE", env)).buildFresh(v)
	}
	winners := func() []int {
		var w []int
		for k := 0; k < env.App.Tasks; k++ {
			w = append(w, int(h.trace[k*(len(pl.Procs)+1)+len(pl.Procs)].winner))
		}
		return w
	}

	a := view(up, down, up, up)
	h.buildFresh(a)
	if h.trace != nil {
		t.Fatal("the first build allocated the trace")
	}
	if got := h.buildFresh(a); !got.Equal(app.Assignment{2, 0, 0, 1}) {
		t.Fatalf("build A = %v, want [2 0 0 1]", got)
	}
	if got := h.buildFresh(view(down, up, up, down)); got != nil {
		t.Fatalf("build B = %v, want nil at step 1", got)
	}
	if w := winners(); w[0] != 1 || w[1] != -1 {
		t.Fatalf("after build B the trace winners are %v, want [1 -1 ...]", w)
	}
	c := view(up, up, up, up)
	want := fresh(c)
	if !want.Equal(app.Assignment{2, 1, 0, 0}) {
		t.Fatalf("fresh build C = %v, want [2 1 0 0]", want)
	}
	if got := h.buildFresh(c); !got.Equal(want) {
		t.Fatalf("build C = %v, want %v", got, want)
	}
	if w := winners(); w[0] != 1 || w[1] != 0 {
		t.Fatalf("build C winners %v, want steps 0 and 1 won by processors 1 and 0", w)
	}
}

// TestProactiveIYKeepsCandidateAcrossElapsed pins a deviation from the
// paper (DESIGN.md, "Reproduction notes"): a proactive heuristic caches
// its candidate per (UP set, retention epoch), so over the IY base, whose
// score reads Elapsed, P-IY, E-IY and Y-IY keep the candidate built at the
// epoch's first decision while a fresh IY build would already pick
// another configuration.
func TestProactiveIYKeepsCandidateAcrossElapsed(t *testing.T) {
	for _, name := range []string{"P-IY", "E-IY", "Y-IY"} {
		found := false
		for seed := uint64(1); seed <= 20 && !found; seed++ {
			env := testEnv(seed, 8, 5, 4, 2)
			h := MustBuild(name, env).(*proactive)
			v := allUpView(env)
			first, _ := h.DecideSpan(v, 1)
			for _, elapsed := range []int64{10, 100, 1000, 10000, 100000} {
				v.Elapsed = elapsed
				rebuilt := MustBuild("IY", env).Decide(v)
				if rebuilt.Equal(first) {
					continue
				}
				found = true
				if got, _ := h.DecideSpan(v, 1); !got.Equal(first) {
					t.Fatalf("%s (seed %d) at Elapsed %d: got %v, want the cached candidate %v",
						name, seed, elapsed, got, first)
				}
				break
			}
		}
		if !found {
			t.Fatalf("%s: no platform where the IY build moves with Elapsed", name)
		}
	}
}
