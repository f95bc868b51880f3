package exp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalSweep shrinks QuickSweep(10) — the Table II campaign — to test
// scale while keeping its shape: all three ncom values, several
// heuristics, multiple scenarios and trials.
func journalSweep() Sweep {
	s := QuickSweep(10)
	s.Wmins = []int{1, 2}
	s.Cap = 30_000
	s.Heuristics = []string{"IE", "Y-IE", "RANDOM", "IAY"}
	return s
}

// TestJournalResumeByteIdentical is the acceptance path: a journaled
// QuickSweep-style campaign is interrupted partway (with a torn final
// line, as a crash mid-write would leave), resumed from the journal
// alone, and must reproduce the uninterrupted run's Table II rows
// byte-for-byte.
func TestJournalResumeByteIdentical(t *testing.T) {
	s := journalSweep()

	// The uninterrupted reference run.
	ref, err := RunWithContext(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := ref.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	refTable := FormatTable(refRows)

	// The interrupted run: a sink that fails after a third of the
	// instances simulates a crash; everything journaled so far survives.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := CreateJournalFormat(path, s, Shard{}, FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	limit := len(ref.Instances) / 3
	interrupted := errors.New("interrupted")
	n := 0
	_, err = RunWithContext(context.Background(), s, RunOptions{
		Journal: j,
		Sink: func(InstanceResult) error {
			n++
			if n >= limit {
				return interrupted
			}
			return nil
		},
	})
	if !errors.Is(err, interrupted) {
		t.Fatalf("interrupted run returned %v, want the sink's error", err)
	}
	journaled := j.DoneCount()
	if journaled < limit || journaled >= len(ref.Instances) {
		t.Fatalf("journal holds %d instances, want in [%d, %d)", journaled, limit, len(ref.Instances))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash can also tear the line being written: append half a record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"model":"markov","ncom":5,"wm`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume from the journal alone and require bit-identical everything.
	var firstDone, lastDone, total int
	res, err := ResumeWith(context.Background(), path, RunOptions{Progress: func(done, tot int) {
		if firstDone == 0 {
			firstDone = done
		}
		lastDone, total = done, tot
	}})
	if err != nil {
		t.Fatal(err)
	}
	if firstDone < journaled {
		t.Fatalf("resume re-ran journaled instances: first progress %d, journal had %d", firstDone, journaled)
	}
	if lastDone != total || total != len(ref.Instances) {
		t.Fatalf("resume progress ended %d/%d, want %d/%d", lastDone, total, len(ref.Instances), len(ref.Instances))
	}
	if len(res.Instances) != len(ref.Instances) {
		t.Fatalf("resumed run has %d instances, want %d", len(res.Instances), len(ref.Instances))
	}
	for i := range res.Instances {
		if res.Instances[i] != ref.Instances[i] {
			t.Fatalf("instance %d differs after resume:\n%+v\n%+v", i, res.Instances[i], ref.Instances[i])
		}
	}
	rows, err := res.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatTable(rows); got != refTable {
		t.Fatalf("Table II rows differ after resume:\n--- uninterrupted\n%s--- resumed\n%s", refTable, got)
	}
}

// TestResumeOfCompleteJournalRunsNothing re-opens a finished campaign's
// journal: everything is already recorded, so resume is pure replay.
func TestResumeOfCompleteJournalRunsNothing(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	path := filepath.Join(t.TempDir(), "done.journal")
	j, err := CreateJournalFormat(path, s, Shard{}, FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunWithContext(context.Background(), s, RunOptions{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	var calls int
	var firstDone, total int
	res, err := ResumeWith(context.Background(), path, RunOptions{Progress: func(done, tot int) {
		calls++
		firstDone, total = done, tot
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || firstDone != total {
		t.Fatalf("complete journal resume reported progress %d times, last %d/%d; want one full report", calls, firstDone, total)
	}
	if len(res.Instances) != len(full.Instances) {
		t.Fatalf("replayed %d instances, want %d", len(res.Instances), len(full.Instances))
	}
	for i := range res.Instances {
		if res.Instances[i] != full.Instances[i] {
			t.Fatalf("instance %d differs in replay", i)
		}
	}
}

// TestJournalSpecMismatch: a journal belongs to exactly one campaign.
func TestJournalSpecMismatch(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	path := filepath.Join(t.TempDir(), "a.journal")
	j, err := CreateJournalFormat(path, s, Shard{}, FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	other := s
	other.Seed++
	if _, err := RunWithContext(context.Background(), other, RunOptions{Journal: j}); err == nil {
		t.Fatal("journal accepted a different campaign")
	}
	if _, err := RunWithContext(context.Background(), s, RunOptions{Journal: j, Shard: Shard{Index: 0, Count: 2}}); err == nil {
		t.Fatal("whole-campaign journal accepted a sharded run")
	}
}

// TestJournalCorruptMiddleRejected: damage before the tail is not a torn
// write and must not be silently dropped.
func TestJournalCorruptMiddleRejected(t *testing.T) {
	s := tinySweep([]string{"IE"})
	path := filepath.Join(t.TempDir(), "corrupt.journal")
	j, err := CreateJournalFormat(path, s, Shard{}, FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithContext(context.Background(), s, RunOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal too short to corrupt: %d lines", len(lines))
	}
	lines[2] = "NOT JSON\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("corrupt middle line accepted")
	}
}

// TestMergeJournalsTolerateTornTail: a torn tail — however the crash
// left it — is forgiven in *any* input journal, not just the one being
// resumed. A shard journal torn mid-record merges cleanly as long as an
// overlapping journal (a requeued cluster lease, a re-run shard) covers
// the lost instance; the same tear is also resumable in place.
func TestMergeJournalsTolerateTornTail(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})

	ref, err := RunWithContext(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	runShard := func(dir string, name string, sh Shard) string {
		t.Helper()
		path := filepath.Join(dir, name)
		j, err := CreateJournalFormat(path, s, sh, FormatJSONL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunWithContext(context.Background(), s, RunOptions{Journal: j, Shard: sh}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		return path
	}

	tear := map[string]func(t *testing.T, path string){
		// A write cut short: the final record loses its newline.
		"cut": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// Filesystem crash recovery zero-fills the tail of the last
		// block: the final line keeps its newline but parses as garbage.
		"zero-filled": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := strings.LastIndexByte(strings.TrimSuffix(string(data), "\n"), '\n') + 1
			torn := append([]byte(nil), data[:cut]...)
			for i := cut; i < len(data)-1; i++ {
				torn = append(torn, 0)
			}
			torn = append(torn, '\n')
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}

	for name, damage := range tear {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			a := runShard(dir, "a.journal", Shard{Index: 0, Count: 2})
			b := runShard(dir, "b.journal", Shard{Index: 1, Count: 2})
			// The overlapping journal a requeued lease would leave: the
			// same shard, run to completion elsewhere.
			b2 := runShard(dir, "b2.journal", Shard{Index: 1, Count: 2})
			damage(t, b)

			// The torn journal must load short, not fail.
			partial, _, err := LoadJournal(b)
			if err != nil {
				t.Fatalf("torn shard journal failed to load: %v", err)
			}
			full, _, err := LoadJournal(b2)
			if err != nil {
				t.Fatal(err)
			}
			if len(partial.Instances) != len(full.Instances)-1 {
				t.Fatalf("torn journal holds %d instances, want %d (one lost to the tear)",
					len(partial.Instances), len(full.Instances)-1)
			}

			// Merging with the overlap yields the complete campaign.
			merged, err := MergeJournals(a, b, b2)
			if err != nil {
				t.Fatalf("MergeJournals with a torn input: %v", err)
			}
			if len(merged.Instances) != len(ref.Instances) {
				t.Fatalf("merged %d instances, want %d", len(merged.Instances), len(ref.Instances))
			}
			for i := range merged.Instances {
				if merged.Instances[i] != ref.Instances[i] {
					t.Fatalf("instance %d differs after torn-tail merge", i)
				}
			}

			// The same tear is resumable in place: the lost instance is
			// re-run, bit-identically.
			res, err := ResumeWith(context.Background(), b, RunOptions{})
			if err != nil {
				t.Fatalf("resume of torn shard: %v", err)
			}
			if len(res.Instances) != len(full.Instances) {
				t.Fatalf("resumed shard has %d instances, want %d", len(res.Instances), len(full.Instances))
			}
			for i := range res.Instances {
				if res.Instances[i] != full.Instances[i] {
					t.Fatalf("instance %d differs after torn-tail resume", i)
				}
			}
		})
	}
}

// TestCreateJournalRefusesExisting: resuming goes through OpenJournal;
// CreateJournalFormat never clobbers history.
func TestCreateJournalRefusesExisting(t *testing.T) {
	s := tinySweep([]string{"IE"})
	path := filepath.Join(t.TempDir(), "x.journal")
	j, err := CreateJournalFormat(path, s, Shard{}, FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := CreateJournalFormat(path, s, Shard{}, FormatJSONL); err == nil {
		t.Fatal("CreateJournalFormat overwrote an existing journal")
	}
}

// TestDiscardInstances: streaming consumers can bound memory; the sink
// still sees every instance.
func TestDiscardInstances(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	seen := 0
	res, err := RunWithContext(context.Background(), s, RunOptions{
		DiscardInstances: true,
		Sink:             func(InstanceResult) error { seen++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := s.InstanceCount() * 2; seen != want {
		t.Fatalf("sink saw %d instances, want %d", seen, want)
	}
	if res.Instances != nil {
		t.Fatalf("DiscardInstances kept %d instances", len(res.Instances))
	}
}

// TestSweepSpecRoundTrip: a built-in-model campaign reconstructs exactly.
func TestSweepSpecRoundTrip(t *testing.T) {
	s := tinySweep([]string{"IE", "Y-IE"})
	spec := s.Spec()
	back, err := spec.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Spec(); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", spec) {
		t.Fatalf("spec round trip:\n%+v\n%+v", got, spec)
	}
	if spec.Models[0] != "markov" || len(spec.Models) != 1 {
		t.Fatalf("default model spec: %v", spec.Models)
	}
}
