package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// stores builds the store over each file system for contract tests.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMemStore(),
		"file": fs,
	}
}

func TestBlobCRUD(t *testing.T) {
	for name, s := range stores(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			if _, err := s.GetBlob("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("want ErrNotFound, got %v", err)
			}
			if err := s.PutBlob("a", []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := s.PutBlob("a", []byte("two")); err != nil {
				t.Fatal(err)
			}
			got, err := s.GetBlob("a")
			if err != nil || string(got) != "two" {
				t.Fatalf("get: %q %v", got, err)
			}
			if err := s.DeleteBlob("a"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetBlob("a"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("want ErrNotFound after delete, got %v", err)
			}
			if err := s.DeleteBlob("a"); err != nil {
				t.Fatal("double delete should be nil")
			}
		})
	}
}

func TestBlobIsolation(t *testing.T) {
	for name, s := range stores(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			buf := []byte("original")
			if err := s.PutBlob("x", buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "mutated!")
			got, err := s.GetBlob("x")
			if err != nil || string(got) != "original" {
				t.Fatalf("store shares caller buffer: %q %v", got, err)
			}
			got[0] = 'X'
			again, _ := s.GetBlob("x")
			if string(again) != "original" {
				t.Fatal("store shares returned buffer")
			}
		})
	}
}

func TestListBlobs(t *testing.T) {
	for name, s := range stores(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			for _, id := range []string{"obj/b", "obj/a", "other/c", "obj-weird /name:with*chars"} {
				if err := s.PutBlob(id, []byte(id)); err != nil {
					t.Fatal(err)
				}
			}
			ids, err := s.ListBlobs("obj/")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"obj/a", "obj/b"}
			if !reflect.DeepEqual(ids, want) {
				t.Fatalf("list = %v, want %v", ids, want)
			}
			all, err := s.ListBlobs("")
			if err != nil || len(all) != 4 {
				t.Fatalf("list all = %v (%v)", all, err)
			}
			// Weird names must survive the round trip.
			got, err := s.GetBlob("obj-weird /name:with*chars")
			if err != nil || string(got) != "obj-weird /name:with*chars" {
				t.Fatalf("weird name: %q %v", got, err)
			}
		})
	}
}

func TestLogAppendRead(t *testing.T) {
	for name, s := range stores(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			if recs, err := s.ReadLog("empty"); err != nil || len(recs) != 0 {
				t.Fatalf("empty log: %v %v", recs, err)
			}
			for i := 0; i < 10; i++ {
				if err := s.AppendLog("l", []byte(fmt.Sprintf("rec-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			recs, err := s.ReadLog("l")
			if err != nil || len(recs) != 10 {
				t.Fatalf("read: %d recs, %v", len(recs), err)
			}
			for i, r := range recs {
				if string(r) != fmt.Sprintf("rec-%d", i) {
					t.Fatalf("rec %d = %q", i, r)
				}
			}
			if err := s.TruncateLog("l"); err != nil {
				t.Fatal(err)
			}
			recs, err = s.ReadLog("l")
			if err != nil || len(recs) != 0 {
				t.Fatalf("after truncate: %v %v", recs, err)
			}
		})
	}
}

func TestLogBinaryRecords(t *testing.T) {
	for name, s := range stores(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			rec := []byte{0, 1, 2, 0xff, 0, 4}
			if err := s.AppendLog("bin", rec); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendLog("bin", nil); err != nil {
				t.Fatal(err)
			}
			recs, err := s.ReadLog("bin")
			if err != nil || len(recs) != 2 {
				t.Fatalf("read: %v %v", recs, err)
			}
			if !reflect.DeepEqual(recs[0], rec) || len(recs[1]) != 0 {
				t.Fatalf("records corrupted: %v", recs)
			}
		})
	}
}

func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendLog("wal", []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: write a partial record by hand.
	path := filepath.Join(dir, "logs", escapeName("wal"))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 'p', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	recs, err := fs.ReadLog("wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "good" {
		t.Fatalf("torn tail not discarded: %v", recs)
	}
}

func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	fs1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs1.PutBlob("persist", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := fs1.AppendLog("wal", []byte("entry")); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.GetBlob("persist")
	if err != nil || string(got) != "durable" {
		t.Fatalf("blob lost across reopen: %q %v", got, err)
	}
	recs, err := fs2.ReadLog("wal")
	if err != nil || len(recs) != 1 || string(recs[0]) != "entry" {
		t.Fatalf("log lost across reopen: %v %v", recs, err)
	}
}

func TestEscapeRoundTripProperty(t *testing.T) {
	prop := func(s string) bool {
		esc := escapeName(s)
		for _, r := range esc {
			ok := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
				(r >= '0' && r <= '9') || r == '-' || r == '.' || r == '_'
			if !ok {
				return false
			}
		}
		back, err := unescapeName(esc)
		return err == nil && back == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Both file systems hold a log as [u32 BE length][record]: the same
// appends read back as the same records from each, a torn tail is
// dropped, and a length no record may have is corruption.
func TestLogStoresAgree(t *testing.T) {
	const truncate = "\x00truncate"
	cases := []struct {
		name    string
		steps   []string // records to append, or truncate
		tail    []byte   // raw bytes written after the file's last record
		want    []string
		corrupt bool
	}{
		{name: "missing log"},
		{name: "one empty record", steps: []string{""}, want: []string{""}},
		{name: "records", steps: []string{"a", "", "bc", strings.Repeat("x", 70_000)},
			want: []string{"a", "", "bc", strings.Repeat("x", 70_000)}},
		{name: "truncated", steps: []string{"a", "b", truncate}},
		{name: "truncated, then appended", steps: []string{"a", truncate, "c"}, want: []string{"c"}},
		{name: "torn length", steps: []string{"a", "b"}, tail: []byte{0, 0}, want: []string{"a", "b"}},
		{name: "torn record", steps: []string{"a"}, tail: []byte{0, 0, 0, 9, 'p', 'a', 'r'}, want: []string{"a"}},
		{name: "length past the bound", steps: []string{"a"}, tail: []byte{0x10, 0, 0, 1}, corrupt: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ms := NewMemStore()
			for _, s := range []*FileStore{ms, fs} {
				for _, step := range tc.steps {
					if step == truncate {
						err = s.TruncateLog("wal")
					} else {
						err = s.AppendLog("wal", []byte(step))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if tc.tail != nil {
					if _, err := s.logs.append("wal", tc.tail); err != nil {
						t.Fatal(err)
					}
				}
			}
			for name, s := range map[string]Store{"mem": ms, "file": fs} {
				recs, err := s.ReadLog("wal")
				if tc.corrupt {
					if !errors.Is(err, ErrCorruptLog) {
						t.Fatalf("%s store: want ErrCorruptLog, got %v", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, r := range recs {
					got = append(got, string(r))
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("%s store reads %q, want %q", name, got, tc.want)
				}
			}
		})
	}
}

// ReadLog returns copies: writing into a record, or appending to it, is
// seen neither by the store nor by the record after it.
func TestLogRecordsAreCopies(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, rec := range []string{"first", "second"} {
				if err := s.AppendLog("l", []byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			recs, err := s.ReadLog("l")
			if err != nil || len(recs) != 2 {
				t.Fatalf("read: %q %v", recs, err)
			}
			recs[0][0] = 'X'
			recs[0] = append(recs[0], "past the next length prefix"...)
			if string(recs[1]) != "second" {
				t.Fatalf("appending to one record overwrote the next: %q", recs[1])
			}
			again, _ := s.ReadLog("l")
			if string(again[0]) != "first" || string(again[1]) != "second" {
				t.Fatalf("store shares returned records: %q", again)
			}
		})
	}
}

// Two writers of one blob id each publish a whole value: a reader then
// sees one of the two, never a blob torn between them, and neither put
// fails.
func TestConcurrentPutBlob(t *testing.T) {
	values := [][]byte{bytes.Repeat([]byte("L"), 64<<10), bytes.Repeat([]byte("s"), 1<<10)}
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 200; round++ {
				var wg sync.WaitGroup
				errs := make([]error, len(values))
				for i, v := range values {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = s.PutBlob("one", v)
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatalf("round %d: put: %v", round, err)
					}
				}
				got, err := s.GetBlob("one")
				if err != nil {
					t.Fatalf("round %d: get: %v", round, err)
				}
				if !bytes.Equal(got, values[0]) && !bytes.Equal(got, values[1]) {
					t.Fatalf("round %d: torn blob of %d bytes", round, len(got))
				}
			}
		})
	}
}

// recordingDir notes, in one log shared by a store's directories, every
// call that changes a directory or makes it durable.
type recordingDir struct {
	directory
	name string
	ops  *[]string
}

func (d recordingDir) note(op string) { *d.ops = append(*d.ops, op) }

func (d recordingDir) write(name string, data []byte) error {
	d.note("write " + d.name + "/" + name)
	return d.directory.write(name, data)
}

func (d recordingDir) append(name string, data []byte) (bool, error) {
	d.note("append " + d.name + "/" + name)
	return d.directory.append(name, data)
}

func (d recordingDir) rename(from, to string) error {
	d.note("rename " + d.name + "/" + from + " " + to)
	return d.directory.rename(from, to)
}

func (d recordingDir) remove(name string) error {
	d.note("remove " + d.name + "/" + name)
	return d.directory.remove(name)
}

func (d recordingDir) syncDir() error {
	d.note("sync " + d.name)
	return d.directory.syncDir()
}

// A checkpoint is written, renamed and its directory synced before the
// log it subsumes is removed, and the removal is synced too: recovery
// (migrate.Checkpoint, then Recover) never finds the log gone and the
// checkpoint missing. A log's creation is synced once, not per append.
func TestCheckpointThenTruncateOrder(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*FileStore{"mem": NewMemStore(), "file": fs} {
		t.Run(name, func(t *testing.T) {
			var ops []string
			s.blobs = recordingDir{s.blobs, "blobs", &ops}
			s.logs = recordingDir{s.logs, "logs", &ops}
			step := func(want []string, do func() error) {
				t.Helper()
				ops = nil
				if err := do(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ops, want) {
					t.Fatalf("ops = %q, want %q", ops, want)
				}
			}
			step([]string{"append logs/oplog/x", "sync logs"}, func() error { return s.AppendLog("oplog/x", []byte("a")) })
			step([]string{"append logs/oplog/x"}, func() error { return s.AppendLog("oplog/x", []byte("b")) })
			step([]string{"write blobs/ckpt/x.tmp", "rename blobs/ckpt/x.tmp ckpt/x", "sync blobs",
				"remove logs/oplog/x", "sync logs"}, func() error {
				if err := s.PutBlob("ckpt/x", []byte("snap")); err != nil {
					return err
				}
				return s.TruncateLog("oplog/x")
			})
			step([]string{"remove blobs/ckpt/x", "sync blobs"}, func() error { return s.DeleteBlob("ckpt/x") })
			step([]string{"remove logs/oplog/x", "sync logs"}, func() error { return s.TruncateLog("oplog/x") })
		})
	}
}

// The file layout is blobs/ and logs/ of escaped names, each log a stream
// of [u32 BE length][record]: a directory written in it by hand opens.
func TestFileStoreOpensItsLayout(t *testing.T) {
	dir := t.TempDir()
	for path, data := range map[string]string{
		"blobs/ckpt_2fx": "snap",
		"logs/oplog_2fx": "\x00\x00\x00\x02op\x00\x00\x00\x00",
	} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, path), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.GetBlob("ckpt/x"); err != nil || string(got) != "snap" {
		t.Fatalf("blob: %q %v", got, err)
	}
	if ids, err := s.ListBlobs(""); err != nil || !reflect.DeepEqual(ids, []string{"ckpt/x"}) {
		t.Fatalf("list: %q %v", ids, err)
	}
	if recs, err := s.ReadLog("oplog/x"); err != nil || len(recs) != 2 || string(recs[0]) != "op" || len(recs[1]) != 0 {
		t.Fatalf("log: %q %v", recs, err)
	}
}
