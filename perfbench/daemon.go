package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tightsched"
	"tightsched/internal/exp"
	"tightsched/internal/serve"
)

// daemonGridEvery makes every daemonGridEvery-th submission a JSON quick
// grid spec; the others are YAML Table I specs.
const daemonGridEvery = 5

// daemonBench drives an in-process serve.Server on a loopback listener
// with a closed loop of clients: each submits a campaign, follows its
// SSE stream to the terminal state, fetches the artifact, and only then
// submits again.
type daemonBench struct {
	seed    uint64
	workers int // runners and clients; each campaign runs one worker

	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	// ref0 is campaign 0's Table I computed in-process by a Session.
	ref0 string
}

func newDaemonBench(seed uint64) workload { return &daemonBench{seed: seed} }

// campaignSpec is one submission: its body, content type and the table
// it serves.
type campaignSpec struct {
	body, contentType string
	table             int
}

// spec returns the i-th submission. Table I specs keep the daemon
// defaults (leap core, JSONL journal).
func (b *daemonBench) spec(i int) campaignSpec {
	seed := unitSeed(b.seed, i)
	if i%daemonGridEvery == daemonGridEvery-1 {
		return campaignSpec{
			body: fmt.Sprintf(`{"version": 1, "name": "bench-%d", "preset": "quick", "grid": {"seed": %d, "trials": 1}, "run": {"workers": 1}}`,
				i, seed),
			contentType: "application/json",
			table:       4,
		}
	}
	return campaignSpec{
		body: fmt.Sprintf(`version: 1
name: bench-%d
sweep:
  m: 5
  ncoms: [5, 10, 20]
  wmins: [1]
  scenarios: 1
  trials: 1
  cap: 100000
  seed: %d
  heuristics: [IE, Y-IE, P-IE, E-IE]
run:
  workers: 1
`, i, seed),
		contentType: "application/yaml",
		table:       1,
	}
}

func (b *daemonBench) setup(dir string, workers int) error {
	b.workers = workers
	srv, err := serve.NewServer(serve.Config{DataDir: dir, Runners: workers, Workers: 1})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	b.srv = srv
	b.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	// The reference for campaign 0: the same spec run in-process.
	sp := b.spec(0)
	decoded, serr := serve.DecodeSpec([]byte(sp.body), sp.contentType)
	if serr != nil {
		return serr
	}
	res, err := tightsched.NewSession().RunSweep(context.Background(), decoded.Sweep, tightsched.WithWorkers(1))
	if err != nil {
		return err
	}
	b.ref0, err = exp.RenderTableArtifact(res, sp.table)
	return err
}

func (b *daemonBench) close() {
	if b.srv == nil {
		return
	}
	b.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		b.hs.Close()
	}
	<-b.served
	b.client.CloseIdleConnections()
	b.srv = nil
}

// servedCampaign is what a client saw of one campaign, kept for the
// checks after the loop.
type servedCampaign struct {
	index    int
	id       string
	status   serve.Status
	artifact string
	latency  time.Duration
	submit   time.Duration
	fetch    time.Duration
	events   int
	err      error
}

func (b *daemonBench) measure(p *pass) passResult {
	var r passResult
	before, _ := b.sseCounters()
	clients := b.workers
	if p.rec != nil {
		clients = 1
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		results []servedCampaign
		wg      sync.WaitGroup
	)
	debug.FreeOSMemory()
	rss := startRSS()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !p.more(i, time.Since(start)) {
					return
				}
				sc := b.campaign(p, i)
				mu.Lock()
				results = append(results, sc)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.addRSS(rss.finish())
	after, _ := b.sseCounters()

	// Checks, after the loop so that they do not slow it.
	slices.SortFunc(results, func(a, b servedCampaign) int { return a.index - b.index })
	var submits, queues, runs, fetches []float64
	events := 0
	for _, sc := range results {
		failed := int64(0)
		if err := b.check(sc); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: daemon campaign %d (%s): %v\n", sc.index, sc.id, err)
			failed = 1
		}
		r.addUnit(1, failed, 1, sc.latency, sha256Hex(sc.artifact))
		submits = append(submits, ms(sc.submit))
		fetches = append(fetches, ms(sc.fetch))
		if st := sc.status; st.Started != nil && st.Finished != nil {
			queues = append(queues, ms(st.Started.Sub(st.Submitted)))
			runs = append(runs, ms(st.Finished.Sub(*st.Started)))
		}
		events += sc.events
	}
	// The loop's rate counts whole wall time: campaigns overlap.
	r.timed = r.wall
	r.rates = []float64{float64(r.ops) / r.wall.Seconds()}
	r.figures = append(r.figures,
		figure{"campaigns_per_s", "1/s", float64(r.ops) / r.wall.Seconds(),
			fmt.Sprintf("%d campaigns over %.6g s, %d clients", r.ops, r.wall.Seconds(), clients)},
		figure{"artifact_latency_p50_ms", "ms", median(r.latencies), fmt.Sprintf("%d campaigns", len(r.latencies))})
	if p, ok := tailPercentile(len(r.latencies)); ok {
		r.figures = append(r.figures, figure{fmt.Sprintf("artifact_latency_p%g_ms", p), "ms",
			quantile(r.latencies, p/100), fmt.Sprintf("%d campaigns", len(r.latencies))})
	}
	r.setLayer("serve.submit_ms_p50", median(submits))
	r.setLayer("serve.queue_ms_p50", median(queues))
	r.setLayer("serve.run_ms_p50", median(runs))
	r.setLayer("serve.artifact_ms_p50", median(fetches))
	r.setLayer("serve.sse_events", float64(events))
	r.setLayer("serve.sse_subscriptions", float64(after.subscriptions-before.subscriptions))
	r.setLayer("serve.sse_dropped", float64(after.dropped-before.dropped))
	return r
}

// campaign submits campaign i, follows it to its terminal state and
// fetches its artifact.
func (b *daemonBench) campaign(p *pass, i int) servedCampaign {
	sc := servedCampaign{index: i}
	sp := b.spec(i)
	root := p.start("bench.unit", 0, i)
	defer p.end(root)
	t0 := time.Now()

	span := p.start("serve.submit", root, i)
	resp, err := b.client.Post(b.base+"/v1/campaigns", sp.contentType, strings.NewReader(sp.body))
	if err == nil {
		var st serve.Status
		err = decodeResponse(resp, http.StatusAccepted, &st)
		sc.id = st.ID
	}
	p.end(span)
	sc.submit = time.Since(t0)
	if err != nil {
		sc.err = fmt.Errorf("submit: %w", err)
		return sc
	}

	span = p.start("serve.follow", root, i)
	resp, err = b.client.Get(b.base + "/v1/campaigns/" + sc.id + "/events")
	if err == nil {
		sc.status, sc.events, err = followSSE(resp.Body)
		resp.Body.Close()
	}
	p.end(span)
	if err != nil {
		sc.err = fmt.Errorf("events: %w", err)
		return sc
	}

	t1 := time.Now()
	span = p.start("serve.artifact", root, i)
	resp, err = b.client.Get(fmt.Sprintf("%s/v1/campaigns/%s/tables/%d", b.base, sc.id, sp.table))
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s: %s", resp.Status, body)
		}
		sc.artifact = string(body)
	}
	p.end(span)
	sc.fetch = time.Since(t1)
	sc.latency = time.Since(t0)
	if err != nil {
		sc.err = fmt.Errorf("artifact: %w", err)
	}
	return sc
}

// check verifies one served campaign: it succeeded, its artifact equals
// the table rendered from its own journal, and campaign 0's equals the
// in-process Session run of the same spec.
func (b *daemonBench) check(sc servedCampaign) error {
	if sc.err != nil {
		return sc.err
	}
	if sc.status.State != serve.StateSucceeded {
		return fmt.Errorf("ended %s: %s", sc.status.State, sc.status.Error)
	}
	table := b.spec(sc.index).table
	var res *exp.Result
	var err error
	if table == 4 {
		res, err = exp.AggregateGridJournal(sc.status.Journal)
	} else {
		res, err = exp.AggregateJournal(sc.status.Journal)
	}
	if err != nil {
		return err
	}
	art, err := exp.RenderTableArtifact(res, table)
	if err != nil {
		return err
	}
	if art != sc.artifact {
		return fmt.Errorf("served Table %d differs from the table replayed from its journal", table)
	}
	if sc.index == 0 && sc.artifact != b.ref0 {
		return fmt.Errorf("served Table I differs from the in-process Session run")
	}
	return nil
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %s: %s", resp.Status, body)
	}
	return json.Unmarshal(body, v)
}

// followSSE reads a campaign's event stream until a "state" event whose
// status is terminal, and returns that status and the number of events
// read. The stream opens with a state snapshot that may not be terminal.
func followSSE(r io.Reader) (serve.Status, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var event string
	var data strings.Builder
	events := 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "" && data.Len() == 0 {
				continue
			}
			events++
			if event == "state" {
				var st serve.Status
				if err := json.Unmarshal([]byte(data.String()), &st); err != nil {
					return st, events, fmt.Errorf("state event: %w", err)
				}
				if st.State.Terminal() {
					return st, events, nil
				}
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, ":"):
			// comment (keep-alive)
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		}
	}
	if err := sc.Err(); err != nil {
		return serve.Status{}, events, err
	}
	return serve.Status{}, events, errors.New("stream ended before a terminal state")
}

// sseTotals are the daemon's SSE counters from /metrics.
type sseTotals struct{ subscriptions, dropped int64 }

func (b *daemonBench) sseCounters() (sseTotals, error) {
	var t sseTotals
	resp, err := b.client.Get(b.base + "/metrics")
	if err != nil {
		return t, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "tightsched_sse_subscriptions_total":
			t.subscriptions = n
		case "tightsched_sse_dropped_total":
			t.dropped = n
		}
	}
	return t, sc.Err()
}
