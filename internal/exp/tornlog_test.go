package exp_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tightsched/internal/cluster"
	"tightsched/internal/exp"
)

// tornLog is one kind of record log under the torn-tail test: how to
// write a header and n records (returning each record's end offset,
// header first), how to load it (record identities and the
// intact-prefix length the loader returns), and how to reopen it for
// appending.
type tornLog struct {
	name    string
	formats []exp.Format
	write   func(t *testing.T, path string, format exp.Format, n int) []int64
	load    func(path string) ([]string, int64, error)
	reopen  func(path string) error
}

// recordEnds appends n records through add, returning the file size
// after the header and after each record — every append is one write.
func recordEnds(t *testing.T, path string, n int, add func(i int) error) []int64 {
	t.Helper()
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	ends := []int64{size()}
	for i := 0; i < n; i++ {
		if err := add(i); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, size())
	}
	return ends
}

// frame encodes one complete record the way the given framing stores it.
func frame(format exp.Format, payload []byte) []byte {
	if format == exp.FormatJSONL {
		return append(append([]byte(nil), payload...), '\n')
	}
	b := binary.AppendUvarint(nil, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

func sweepLog() tornLog {
	s := exp.Sweep{M: 3, Ncoms: []int{5}, Wmins: []int{1}, Scenarios: 1, Trials: 1,
		P: 8, Iterations: 2, Cap: 50_000, Seed: 99, Heuristics: []string{"IE"}}
	return tornLog{
		name:    "sweep",
		formats: []exp.Format{exp.FormatJSONL, exp.FormatBinary},
		write: func(t *testing.T, path string, format exp.Format, n int) []int64 {
			j, err := exp.CreateJournalFormat(path, s, exp.Shard{}, format)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			return recordEnds(t, path, n, func(i int) error {
				return j.Append(exp.InstanceResult{Point: exp.Point{Ncom: 5, Wmin: 1}, Trial: i,
					Model: "markov", Heuristic: "IE", Makespan: int64(100 + i)})
			})
		},
		load: func(path string) ([]string, int64, error) {
			res, _, err := exp.LoadJournal(path)
			if err != nil {
				return nil, 0, err
			}
			n, err := exp.JournalPrefix(path)
			var ids []string
			for _, inst := range res.Instances {
				ids = append(ids, fmt.Sprint(inst.Trial))
			}
			return ids, n, err
		},
		reopen: func(path string) error {
			j, err := exp.OpenJournal(path)
			if err != nil {
				return err
			}
			return j.Close()
		},
	}
}

func gridLog() tornLog {
	g := exp.QuickOnlineSweep()
	return tornLog{
		name:    "grid",
		formats: []exp.Format{exp.FormatJSONL, exp.FormatBinary},
		write: func(t *testing.T, path string, format exp.Format, n int) []int64 {
			j, err := exp.CreateGridJournalFormat(path, &g, format)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			return recordEnds(t, path, n, func(i int) error {
				return j.Append(exp.GridInstance{GridKey: exp.GridKey{Arrival: "poisson",
					Admission: "fcfs", Preemption: "none", Trial: i}, Apps: 3, Makespan: 500})
			})
		},
		load: func(path string) ([]string, int64, error) {
			res, err := exp.LoadGridJournal(path)
			if err != nil {
				return nil, 0, err
			}
			n, err := exp.GridJournalPrefix(path)
			var ids []string
			for _, inst := range res.Instances {
				ids = append(ids, fmt.Sprint(inst.Trial))
			}
			return ids, n, err
		},
		reopen: func(path string) error {
			j, err := exp.OpenGridJournal(path, &g)
			if err != nil {
				return err
			}
			return j.Close()
		},
	}
}

// leaseLog is the cluster coordinator's lease log, which is JSONL only.
// Its reopen is the coordinator's: ReadState, then append at the
// returned prefix.
func leaseLog() tornLog {
	return tornLog{
		name:    "leases",
		formats: []exp.Format{exp.FormatJSONL},
		write: func(t *testing.T, path string, format exp.Format, n int) []int64 {
			w, err := exp.CreateRecordLog(path, format, []byte(`{"v":1,"campaign":"c1","units":4}`))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			return recordEnds(t, path, n, func(i int) error {
				return w.AppendRecord([]byte(fmt.Sprintf(`{"ev":"grant","unit":"%d/4","lease":"l%d"}`, i, i+1)))
			})
		},
		load: func(path string) ([]string, int64, error) {
			_, events, _, n, err := cluster.ReadState(path)
			var ids []string
			for _, ev := range events {
				ids = append(ids, ev.Unit[:1])
			}
			return ids, n, err
		},
		reopen: func(path string) error {
			_, _, _, n, err := cluster.ReadState(path)
			if err != nil {
				return err
			}
			w, err := exp.OpenRecordLog(path, exp.FormatJSONL, n)
			if err != nil {
				return err
			}
			return w.Close()
		},
	}
}

// TestTornTail: every record log applies the one tear policy. A record
// cut short mid-write and a complete but garbled final record are both
// dropped, the intact prefix ends before them, and reopening for append
// truncates exactly there; a garbled record with records after it is an
// error that leaves the file untouched.
func TestTornTail(t *testing.T) {
	const n = 4
	garbage := []byte("\x00\x00garbled\x00")
	damages := []struct {
		name string
		// damage rewrites the log given its bytes and record ends.
		damage func(format exp.Format, data []byte, ends []int64) []byte
		// keep is how many records survive; -1 means the load must fail.
		keep int
	}{
		{"cut mid-write", func(_ exp.Format, data []byte, ends []int64) []byte {
			return data[:(ends[n-1]+ends[n])/2]
		}, n - 1},
		{"garbled final record", func(format exp.Format, data []byte, ends []int64) []byte {
			return append(append([]byte(nil), data[:ends[n-1]]...), frame(format, garbage)...)
		}, n - 1},
		{"garbled middle record", func(format exp.Format, data []byte, ends []int64) []byte {
			out := append(append([]byte(nil), data[:ends[1]]...), frame(format, garbage)...)
			return append(out, data[ends[2]:]...)
		}, -1},
	}
	for _, log := range []tornLog{sweepLog(), gridLog(), leaseLog()} {
		for _, format := range log.formats {
			for _, d := range damages {
				t.Run(log.name+"/"+format.String()+"/"+d.name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "log")
					ends := log.write(t, path, format, n)
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					torn := d.damage(format, data, ends)
					if err := os.WriteFile(path, torn, 0o644); err != nil {
						t.Fatal(err)
					}

					ids, prefix, err := log.load(path)
					if d.keep < 0 {
						if err == nil {
							t.Fatal("garbled middle record accepted")
						}
						if err := log.reopen(path); err == nil {
							t.Fatal("garbled middle record reopened for append")
						}
						if got, _ := os.ReadFile(path); !reflect.DeepEqual(got, torn) {
							t.Fatal("failed reopen modified the file")
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					var want []string
					for i := 0; i < d.keep; i++ {
						want = append(want, fmt.Sprint(i))
					}
					if !reflect.DeepEqual(ids, want) {
						t.Fatalf("loaded records %v, want %v", ids, want)
					}
					if prefix != ends[d.keep] {
						t.Fatalf("intact prefix %d, want %d", prefix, ends[d.keep])
					}
					if err := log.reopen(path); err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, data[:ends[d.keep]]) {
						t.Fatalf("reopen left %d bytes, want the %d-byte intact prefix", len(got), ends[d.keep])
					}
				})
			}
		}
	}
}
