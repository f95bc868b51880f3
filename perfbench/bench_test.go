package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"tightsched/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{39, 0, false},   // p75 leaves 9 beyond
		{40, 75, true},   // p75 leaves 10
		{99, 75, true},   // p90 leaves 9
		{100, 90, true},  // p90 leaves 10, p95 only 5
		{199, 90, true},  // p95 leaves 9
		{200, 95, true},  // p95 leaves 10
		{999, 95, true},  // p99 leaves 9
		{1000, 99, true}, // p99 leaves 10
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of no samples is not NaN")
	}
}

func TestUnionLength(t *testing.T) {
	for _, c := range []struct {
		ivs  []interval
		want time.Duration
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},                 // overlapping
		{[]interval{{0, 10}, {2, 3}}, 10},                  // nested
		{[]interval{{20, 30}, {0, 10}}, 20},                // disjoint, unsorted
		{[]interval{{0, 10}, {10, 20}}, 20},                // touching
		{[]interval{{5, 5}, {7, 3}, {0, 1}}, 1},            // empty and inverted skipped
		{[]interval{{0, 4}, {3, 8}, {6, 9}, {20, 21}}, 10}, // a chain
	} {
		if got := unionLength(c.ivs); got != c.want {
			t.Errorf("unionLength(%v) = %v, want %v", c.ivs, got, c.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100, Dur: 100},
		// Two overlapping children cover [10, 60): 50, not 60.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40, Dur: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60, Dur: 30},
		// A child running past its parent counts only inside it: 10.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120, Dur: 30},
		// An aggregate of leaf calls subtracts its summed duration.
		{ID: 5, Parent: 1, Name: "leaf", Count: 7, Dur: 5},
		// A grandchild belongs to its own parent only.
		{ID: 6, Parent: 2, Name: "g", Start: 15, End: 25, Dur: 10},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10 - 5, 2: 20, 3: 30, 4: 30, 5: 5, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	tot := totalsByName(spans)
	if tot.count["leaf"] != 7 || tot.count["a"] != 1 || tot.self["root"] != 35 {
		t.Errorf("totals: count leaf %d a %d, self root %v", tot.count["leaf"], tot.count["a"], tot.self["root"])
	}
}

func TestRecorderSpans(t *testing.T) {
	r := NewRecorder()
	root := r.Start("root", 0, 3)
	child := r.Start("child", root, 3)
	r.End(child)
	r.Aggregate("leaf", root, 3, 2*time.Millisecond, 4)
	r.Aggregate("none", root, 3, time.Second, 0) // no calls, no span
	r.End(root)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3: %+v", len(spans), spans)
	}
	for _, s := range spans {
		if s.Run != 3 {
			t.Errorf("span %s run %d, want 3", s.Name, s.Run)
		}
	}
	if spans[1].Parent != root || spans[1].End < spans[1].Start || spans[0].End < spans[1].End {
		t.Errorf("child span %+v not inside root %+v", spans[1], spans[0])
	}
	if spans[2].Count != 4 || spans[2].Dur != 2*time.Millisecond {
		t.Errorf("aggregate span %+v", spans[2])
	}
}

func TestRateBase(t *testing.T) {
	var r rate
	if r.perSecond() != 0 {
		t.Errorf("empty rate %g, want 0", r.perSecond())
	}
	r.add(1500, 10*time.Second)
	r.add(540, 7*time.Second)
	if got := r.perSecond(); got != 120 {
		t.Errorf("rate %g/s, want 120", got)
	}
	if got, want := r.base(), "2040 over 17 s"; got != want {
		t.Errorf("base %q, want %q", got, want)
	}
}

func TestUnitSeed(t *testing.T) {
	if unitSeed(defaultSeed, 0) != defaultSeed {
		t.Errorf("unit 0 does not run at the benchmark seed")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := unitSeed(defaultSeed, i)
		if seen[s] || s >= 1<<53 {
			t.Fatalf("unit %d seed %d repeats or exceeds 2^53", i, s)
		}
		seen[s] = true
	}
	if unitSeed(1, 5) == unitSeed(2, 5) {
		t.Errorf("unit seeds do not depend on the benchmark seed")
	}
}

func TestFollowSSE(t *testing.T) {
	stream := strings.Join([]string{
		"event: state",
		`data: {"id":"c1","state":"pending","submitted":"2013-05-22T00:00:00Z"}`,
		"",
		": keep-alive",
		"",
		"event: instance",
		`data: {"heuristic":"IE","makespan":120}`,
		"",
		"event: state",
		`data: {"id":"c1","state":"running","submitted":"2013-05-22T00:00:00Z"}`,
		"",
		"event: progress",
		"data: {",
		`data: "completed": 3, "total": 3}`,
		"",
		"event: state",
		`data: {"id":"c1","state":"succeeded","submitted":"2013-05-22T00:00:00Z","journal":"d/c1.journal"}`,
		"",
		"event: never-read",
		"data: {}",
		"",
	}, "\n")
	st, events, err := followSSE(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateSucceeded || st.Journal != "d/c1.journal" || events != 5 {
		t.Errorf("got state %q journal %q after %d events; want succeeded, d/c1.journal, 5", st.State, st.Journal, events)
	}

	for _, s := range []string{
		"event: state\ndata: {\"state\":\"running\"}\n\n", // ends without a terminal state
		"event: state\ndata: {\"state\":\n\n",             // malformed state
	} {
		if _, _, err := followSSE(strings.NewReader(s)); err == nil {
			t.Errorf("followSSE(%q) succeeded", s)
		}
	}
	st, _, err = followSSE(strings.NewReader("event: state\ndata: {\"state\":\"failed\",\"error\":\"boom\"}\n\n"))
	if err != nil || st.State != serve.StateFailed || st.Error != "boom" {
		t.Errorf("failed campaign: %+v, %v", st, err)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric and
// workload catalogs of the program in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, perLayer[i])
		}
	}
}
