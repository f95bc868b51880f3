package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTrials journals trials 0..n-1 under hdr and returns the file.
func writeTrials(t *testing.T, path string, hdr trialHeader, n int) []byte {
	t.Helper()
	tj, err := openTrialJournal(path, false, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tj.append(trialRecord{Trial: i, A: true, B: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tj.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// garbleLine replaces line i (0 = header) with garbage, keeping its
// newline.
func garbleLine(data []byte, i int) []byte {
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[i] = []byte("{\"trial\":\x00\x00\n")
	return bytes.Join(lines, nil)
}

// TestTrialJournalGarbledFinalLine: a garbled final line is a torn tail,
// as in sweep journals and the lease log — dropped on resume and
// truncated away before the next append.
func TestTrialJournalGarbledFinalLine(t *testing.T) {
	hdr := trialHeader{V: 1, Mode: "greedy", P: 4, N: 10, M: 2, W: 3, PUp: 0.6, Seed: 1, Trials: 4}
	path := filepath.Join(t.TempDir(), "trials.journal")
	data := writeTrials(t, path, hdr, 3)
	if err := os.WriteFile(path, garbleLine(data, 3), 0o644); err != nil {
		t.Fatal(err)
	}

	tj, err := openTrialJournal(path, true, hdr)
	if err != nil {
		t.Fatalf("garbled final line rejected: %v", err)
	}
	if got := len(tj.done); got != 2 {
		t.Fatalf("resumed %d trials, want 2", got)
	}
	if err := tj.append(trialRecord{Trial: 2, A: true, B: true}); err != nil {
		t.Fatal(err)
	}
	if err := tj.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	want := append(bytes.Join(lines[:3], nil), []byte("{\"trial\":2,\"a\":true,\"b\":true}\n")...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal after resume:\n%s\nwant:\n%s", got, want)
	}
}

// TestTrialJournalGarbledMiddleLine: a garbled line with lines after it
// is corruption, not a tear — resume fails and leaves the file alone.
func TestTrialJournalGarbledMiddleLine(t *testing.T) {
	hdr := trialHeader{V: 1, Mode: "reduce", P: 4, N: 10, M: 2, W: 3, PUp: 0.6, Seed: 1, Trials: 4}
	path := filepath.Join(t.TempDir(), "trials.journal")
	garbled := garbleLine(writeTrials(t, path, hdr, 3), 2)
	if err := os.WriteFile(path, garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openTrialJournal(path, true, hdr); err == nil {
		t.Fatal("garbled middle line accepted")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, garbled) {
		t.Fatal("failed resume modified the journal")
	}
}
