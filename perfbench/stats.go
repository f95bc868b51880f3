package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of tailLadder that has at
// least 10 of n samples beyond it, and false when n is too small for any.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		// Samples strictly above the p-th percentile: n·(1-p/100),
		// computed in integer per-mille to stay exact.
		beyond := n * int(math.Round(1000-10*p)) / 1000
		if beyond >= 10 {
			return p, true
		}
	}
	return 0, false
}

// rate is a count over a wall-clock span, reported with both bases.
type rate struct {
	count   int64
	seconds float64
}

func (r rate) perSecond() float64 {
	if r.seconds <= 0 {
		return 0
	}
	return float64(r.count) / r.seconds
}

// base states the count and span a rate was taken over.
func (r rate) base() string {
	return fmt.Sprintf("%d over %.6g s", r.count, r.seconds)
}

func (r *rate) add(count int64, d time.Duration) {
	r.count += count
	r.seconds += d.Seconds()
}

// rssInterval is how often an rssSampler reads the resident set size.
const rssInterval = 10 * time.Millisecond

// rssSampler reads the process's resident set size every rssInterval
// until finish.
type rssSampler struct {
	stop, done chan struct{}
	sum, peak  float64
	n          int
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-t.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	mb := residentMB()
	s.sum += mb
	s.peak = max(s.peak, mb)
	s.n++
}

// finish stops the sampler and returns the mean and the largest sample,
// in MB.
func (s *rssSampler) finish() (mean, peak float64) {
	close(s.stop)
	<-s.done
	s.sample()
	return s.sum / float64(s.n), s.peak
}

// residentMB returns the process's resident set size in MB (0 where
// /proc/self/statm is unavailable).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// unitSeed derives the seed of measured unit i: unit 0 uses the
// benchmark seed itself, later units a splitmix64 step away from it,
// kept below 2^53 so that every seed survives a JSON or YAML spec.
func unitSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	z := seed + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & (1<<53 - 1)
}
