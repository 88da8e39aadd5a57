package journal_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"contractdb/internal/journal"
	"contractdb/internal/metrics"
	"contractdb/internal/wal"
)

// toy is the smallest journaled state machine: a list of strings. A
// generation is "toy\n" followed by one entry per line, so anything
// else fails to load.
type toy struct {
	dir     string
	keep    int
	j       *journal.Journal
	rec     journal.Recovery
	met     *metrics.Durability
	entries []string
}

const toyHeader = "toy\n"

func openToy(dir string, keep int) (*toy, error) {
	t := &toy{dir: dir, keep: keep, met: &metrics.Durability{}}
	load := func(path string) error {
		if path == "" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		body, ok := strings.CutPrefix(string(data), toyHeader)
		if !ok {
			return errors.New("not a toy generation")
		}
		t.entries = strings.Fields(body)
		return nil
	}
	apply := func(r wal.Record) error {
		t.entries = append(t.entries, string(r.Data))
		return nil
	}
	var err error
	t.j, t.rec, err = journal.Open(journal.Config{
		Dir:    dir,
		Prefix: "toy-",
		Suffix: ".gen",
		Keep:   keep,
		// Tiny segments: every record gets one, so pruning has targets.
		WAL: wal.Options{SegmentBytes: 1, Sync: wal.SyncNever, Metrics: t.met},
	}, load, apply)
	return t, err
}

func (t *toy) append(tb testing.TB, entries ...string) {
	tb.Helper()
	for _, e := range entries {
		if _, err := t.j.Append(1, []byte(e)); err != nil {
			tb.Fatal(err)
		}
		t.entries = append(t.entries, e)
	}
}

// checkpoint seals and, when there is anything new, commits.
func (t *toy) checkpoint(tb testing.TB) (uint64, bool) {
	tb.Helper()
	boundary, fresh, err := t.j.Seal()
	if err != nil {
		tb.Fatal(err)
	}
	if fresh {
		snapshot := toyHeader + strings.Join(t.entries, "\n")
		if err := t.j.Commit(boundary, func(w io.Writer) error {
			_, err := io.WriteString(w, snapshot)
			return err
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return boundary, fresh
}

func generations(tb testing.TB, dir string) []string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "toy-*.gen"))
	if err != nil {
		tb.Fatal(err)
	}
	return paths
}

// segmentFirsts returns the first sequence of every WAL segment.
func segmentFirsts(tb testing.TB, dir string) []uint64 {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil {
		tb.Fatal(err)
	}
	var out []uint64
	for _, p := range paths {
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "wal-"), ".seg"), 10, 64)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, n)
	}
	return out
}

func corrupt(tb testing.TB, paths ...string) {
	tb.Helper()
	for _, p := range paths {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestProtocol drives each recovery and checkpoint rule through the
// toy: build a directory, damage it the way a crash or an operator
// would, reopen, and check what recovery did or why it refused.
func TestProtocol(t *testing.T) {
	cases := []struct {
		name    string
		keep    int
		build   func(t *testing.T, tj *toy)
		damage  func(t *testing.T, dir string)
		wantErr error
		check   func(t *testing.T, before, after *toy)
	}{
		{
			name: "newest generation corrupt falls back",
			keep: 2,
			build: func(t *testing.T, tj *toy) {
				tj.append(t, "a")
				tj.checkpoint(t)
				tj.append(t, "b")
				tj.checkpoint(t)
				tj.append(t, "c")
			},
			damage: func(t *testing.T, dir string) {
				gens := generations(t, dir)
				corrupt(t, gens[len(gens)-1])
			},
			check: func(t *testing.T, before, after *toy) {
				gens := generations(t, after.dir)
				if !reflect.DeepEqual(after.rec.Skipped, gens[1:]) || after.rec.Path != gens[0] {
					t.Errorf("loaded %s skipping %v, want %s skipping %v", after.rec.Path, after.rec.Skipped, gens[0], gens[1:])
				}
				if after.rec.Clean() {
					t.Error("a recovery that skipped a generation reported clean")
				}
				if !reflect.DeepEqual(after.entries, before.entries) {
					t.Errorf("recovered %v, want %v", after.entries, before.entries)
				}
			},
		},
		{
			name: "all generations corrupt refused",
			keep: 2,
			build: func(t *testing.T, tj *toy) {
				tj.append(t, "a")
				tj.checkpoint(t)
				tj.append(t, "b")
				tj.checkpoint(t)
			},
			damage: func(t *testing.T, dir string) {
				corrupt(t, generations(t, dir)...)
			},
			wantErr: journal.ErrUnreadable,
		},
		{
			name: "gap refused",
			keep: 1,
			build: func(t *testing.T, tj *toy) {
				tj.append(t, "a", "b")
				tj.checkpoint(t)
				tj.append(t, "c")
			},
			damage: func(t *testing.T, dir string) {
				for _, p := range generations(t, dir) {
					if err := os.Remove(p); err != nil {
						t.Fatal(err)
					}
				}
			},
			wantErr: journal.ErrGap,
		},
		{
			name: "lost log refused",
			keep: 2,
			build: func(t *testing.T, tj *toy) {
				tj.append(t, "a", "b")
				tj.checkpoint(t)
			},
			damage: func(t *testing.T, dir string) {
				if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: journal.ErrLost,
		},
		{
			name: "stale temp file removed",
			keep: 2,
			build: func(t *testing.T, tj *toy) {
				tj.append(t, "a")
				tj.checkpoint(t)
				tj.append(t, "b")
			},
			damage: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "toy-00000000000000000099.gen.tmp"), []byte("half"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, before, after *toy) {
				if tmps, _ := filepath.Glob(filepath.Join(after.dir, "*.tmp")); len(tmps) != 0 {
					t.Errorf("stale temp files survived recovery: %v", tmps)
				}
				if !reflect.DeepEqual(after.entries, before.entries) {
					t.Errorf("recovered %v, want %v", after.entries, before.entries)
				}
			},
		},
		{
			name: "no-op seal writes nothing",
			keep: 2,
			build: func(t *testing.T, tj *toy) {
				tj.append(t, "a")
				b1, fresh1 := tj.checkpoint(t)
				n := tj.met.Checkpoints.Value()
				b2, fresh2 := tj.checkpoint(t)
				if !fresh1 || fresh2 || b1 != b2 {
					t.Errorf("checkpoints returned (%d, %v) then (%d, %v); want the second a no-op at the same boundary", b1, fresh1, b2, fresh2)
				}
				if got := tj.met.Checkpoints.Value(); got != n {
					t.Errorf("no-op checkpoint counted: %d -> %d", n, got)
				}
				if gens := generations(t, tj.dir); len(gens) != 1 {
					t.Errorf("generations after a no-op seal: %v", gens)
				}
			},
			check: func(t *testing.T, before, after *toy) {
				if !after.rec.Clean() {
					t.Errorf("reopen after a checkpoint replayed: %+v", after.rec)
				}
				if _, fresh := after.checkpoint(t); fresh {
					t.Error("a reopened journal with nothing appended has something new to cover")
				}
			},
		},
		{
			name: "retention keeps generations and their WAL",
			keep: 2,
			build: func(t *testing.T, tj *toy) {
				for round := 0; round < 4; round++ {
					tj.append(t, fmt.Sprintf("r%da", round), fmt.Sprintf("r%db", round))
					tj.checkpoint(t)
				}
				gens := generations(t, tj.dir)
				if len(gens) != 2 {
					t.Fatalf("retained %v, want 2 generations", gens)
				}
				oldest := boundaryOf(t, gens[0])
				firsts := segmentFirsts(t, tj.dir)
				// Every record from the oldest retained boundary on
				// survives, and no segment wholly below it does.
				if firsts[0] > oldest || (len(firsts) > 1 && firsts[1] <= oldest) {
					t.Errorf("segments start at %v, oldest retained boundary %d", firsts, oldest)
				}
			},
			damage: func(t *testing.T, dir string) {
				// The oldest generation must still reach the present.
				gens := generations(t, dir)
				corrupt(t, gens[len(gens)-1])
			},
			check: func(t *testing.T, before, after *toy) {
				if !reflect.DeepEqual(after.entries, before.entries) {
					t.Errorf("recovered %v, want %v", after.entries, before.entries)
				}
			},
		},
		{
			name: "generations order by boundary, not name",
			keep: 2,
			build: func(t *testing.T, tj *toy) {
				tj.append(t, "a")
				tj.checkpoint(t)
				tj.append(t, "b", "c")
				tj.checkpoint(t)
			},
			damage: func(t *testing.T, dir string) {
				// A 16-digit name for the older generation sorts after
				// the 20-digit newer one.
				old := generations(t, dir)[0]
				narrow := filepath.Join(dir, fmt.Sprintf("toy-%016d.gen", boundaryOf(t, old)))
				if err := os.Rename(old, narrow); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, before, after *toy) {
				var newest uint64
				for _, g := range generations(t, after.dir) {
					newest = max(newest, boundaryOf(t, g))
				}
				if after.rec.Boundary != newest || !after.rec.Clean() {
					t.Errorf("recovery = %+v, want generation %d loaded clean", after.rec, newest)
				}
				if !reflect.DeepEqual(after.entries, before.entries) {
					t.Errorf("recovered %v, want %v", after.entries, before.entries)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			before, err := openToy(dir, tc.keep)
			if err != nil {
				t.Fatal(err)
			}
			tc.build(t, before)
			if err := before.j.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.damage != nil {
				tc.damage(t, dir)
			}
			after, err := openToy(dir, tc.keep)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("open = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer after.j.Close()
			tc.check(t, before, after)
		})
	}
}

func boundaryOf(tb testing.TB, path string) uint64 {
	tb.Helper()
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "toy-"), ".gen"), 10, 64)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}
