package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// stores builds one of each implementation for cross-implementation
// contract tests.
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

// Both stores frame a log as [u32 BE length][record] and split it with one
// function: the same appends read back as the same records from each, a
// torn tail on disk is dropped, and a length no record may have is
// corruption.
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
		{name: "length past the bound", steps: []string{"a"}, tail: []byte{0x10, 0, 0, 1}, want: []string{"a"}, corrupt: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			ms := NewMemStore()
			for _, s := range []Store{ms, fs} {
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
			}
			if tc.tail != nil {
				f, err := os.OpenFile(filepath.Join(dir, "logs", escapeName("wal")), os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(tc.tail); err != nil {
					t.Fatal(err)
				}
				_ = f.Close()
			}
			read := func(s Store) []string {
				recs, err := s.ReadLog("wal")
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for _, r := range recs {
					out = append(out, string(r))
				}
				return out
			}
			if got := read(ms); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("mem store reads %q, want %q", got, tc.want)
			}
			if tc.corrupt {
				if _, err := fs.ReadLog("wal"); !errors.Is(err, ErrCorruptLog) {
					t.Fatalf("file store: want ErrCorruptLog, got %v", err)
				}
				return
			}
			if got := read(fs); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("file store reads %q, want %q", got, tc.want)
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
