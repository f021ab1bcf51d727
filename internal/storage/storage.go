// Package storage provides the stable object repository of the
// engineering model.
//
// Resource transparency (§5.5) moves passive objects "not to another
// active location, but rather to a storage device for later retrieval and
// activation"; failure transparency associates a snapshot "with a log of
// outstanding interactions, so that when recovery occurs, the replacement
// object can mirror exactly the state of its predecessor". Store is the
// abstraction both rely on: named snapshot blobs plus append-only
// interaction logs.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Errors returned by stores.
var (
	// ErrNotFound reports a missing blob or log.
	ErrNotFound = errors.New("storage: not found")
	// ErrCorruptLog reports an undecodable log file.
	ErrCorruptLog = errors.New("storage: corrupt log")
)

// Store is a stable repository of snapshots and interaction logs.
type Store interface {
	// PutBlob durably stores data under id, replacing any previous blob.
	PutBlob(id string, data []byte) error
	// GetBlob retrieves the blob stored under id.
	GetBlob(id string) ([]byte, error)
	// DeleteBlob removes the blob under id. Deleting a missing blob is
	// not an error.
	DeleteBlob(id string) error
	// ListBlobs returns the sorted ids of blobs whose id begins with
	// prefix.
	ListBlobs(prefix string) ([]string, error)
	// AppendLog appends one record to the named log, creating it if
	// needed.
	AppendLog(name string, rec []byte) error
	// ReadLog returns every record of the named log in append order. A
	// missing log reads as empty.
	ReadLog(name string) ([][]byte, error)
	// TruncateLog discards the named log (typically after a checkpoint
	// subsumes it).
	TruncateLog(name string) error
}

// A log, on disk or in memory, is a stream of records, each framed as
// [u32 BE length][record].
const maxRecord = 1 << 28

// appendRecord appends one framed record to a log stream.
func appendRecord(stream, rec []byte) []byte {
	stream = binary.BigEndian.AppendUint32(stream, uint32(len(rec)))
	return append(stream, rec...)
}

// splitLog returns the records of a log stream, each a capped slice of
// stream. A trailing partial record (torn write at crash) is silently
// discarded, matching write-ahead-log recovery practice; a length above
// maxRecord is corruption.
func splitLog(stream []byte) ([][]byte, error) {
	var recs [][]byte
	for len(stream) >= 4 {
		n := binary.BigEndian.Uint32(stream)
		if n > maxRecord {
			return nil, fmt.Errorf("%w: record of %d bytes", ErrCorruptLog, n)
		}
		if uint64(len(stream)-4) < uint64(n) {
			break
		}
		end := 4 + int(n)
		recs = append(recs, stream[4:end:end])
		stream = stream[end:]
	}
	return recs, nil
}

// FileStore is the Store: a directory of blobs and a directory of logs,
// written through the directory seam. Every write is synced before it
// returns, a blob is published by renaming a synced temporary file over
// it, and the directory is synced after each rename, each log's creation
// and each remove, so what a call acknowledged survives a power loss.
// One lock serialises every change; reads share it.
type FileStore struct {
	mu          sync.RWMutex
	blobs, logs directory
	frame       []byte // AppendLog's framing buffer, reused under mu
}

// NewFileStore creates (if necessary) and opens a store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	blobs, logs := filepath.Join(dir, "blobs"), filepath.Join(dir, "logs")
	if err := errors.Join(os.MkdirAll(blobs, 0o755), os.MkdirAll(logs, 0o755)); err != nil {
		return nil, err
	}
	return &FileStore{blobs: osDir(blobs), logs: osDir(logs)}, nil
}

// NewMemStore returns an empty store whose directories are held in
// memory: the same store, for tests, benchmarks and nodes that keep
// nothing across a restart.
func NewMemStore() *FileStore {
	return &FileStore{blobs: memDir{}, logs: memDir{}}
}

// PutBlob implements Store.
func (s *FileStore) PutBlob(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := id + ".tmp"
	err := s.blobs.write(tmp, data)
	if err == nil {
		err = s.blobs.rename(tmp, id)
	}
	if err == nil {
		err = s.blobs.syncDir()
	}
	return err
}

// GetBlob implements Store.
func (s *FileStore) GetBlob(id string) ([]byte, error) {
	s.mu.RLock()
	data, err := s.blobs.read(id)
	s.mu.RUnlock()
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: blob %q", ErrNotFound, id)
	}
	return data, err
}

// DeleteBlob implements Store.
func (s *FileStore) DeleteBlob(id string) error { return s.remove(s.blobs, id) }

// ListBlobs implements Store.
func (s *FileStore) ListBlobs(prefix string) ([]string, error) {
	s.mu.RLock()
	names, err := s.blobs.list()
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, id := range names {
		if strings.HasPrefix(id, prefix) && !strings.HasSuffix(id, ".tmp") {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// AppendLog implements Store. The record is framed into a buffer the
// store keeps, so an append allocates nothing of its own.
func (s *FileStore) AppendLog(name string, rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frame = appendRecord(s.frame[:0], rec)
	created, err := s.logs.append(name, s.frame)
	if err == nil && created {
		err = s.logs.syncDir()
	}
	return err
}

// ReadLog implements Store.
func (s *FileStore) ReadLog(name string) ([][]byte, error) {
	s.mu.RLock()
	data, err := s.logs.read(name)
	s.mu.RUnlock()
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return splitLog(data) // a missing log reads as empty
}

// TruncateLog implements Store.
func (s *FileStore) TruncateLog(name string) error { return s.remove(s.logs, name) }

// remove removes name from d and syncs d. A missing file is not an
// error, and d is synced all the same: an earlier removal may not be
// durable yet.
func (s *FileStore) remove(d directory, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := d.remove(name); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return d.syncDir()
}

// directory is the file-system seam FileStore is written against: one
// flat directory of named files, cut at the granularity the store uses.
// write and append return once the file's contents are synced; syncDir
// makes the directory's entries (creations, renames, removals) durable.
// A missing file is reported as os.ErrNotExist. FileStore's lock
// serialises every call that changes the directory.
type directory interface {
	write(name string, data []byte) error                      // create or replace name, synced
	append(name string, data []byte) (created bool, err error) // create if needed, synced
	read(name string) ([]byte, error)                          // a buffer the caller owns
	rename(from, to string) error
	remove(name string) error
	list() ([]string, error) // every file's name, in no order
	syncDir() error
}

// osDir is a directory of the operating system. A name is escaped into
// a file name, so any byte string is a name.
type osDir string

func (d osDir) path(name string) string { return filepath.Join(string(d), escapeName(name)) }

func (d osDir) write(name string, data []byte) error {
	f, err := os.OpenFile(d.path(name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	return syncClose(f, err)
}

func (d osDir) append(name string, data []byte) (created bool, err error) {
	path := d.path(name)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		created = true
		f, err = os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	}
	if err != nil {
		return false, err
	}
	_, err = f.Write(data)
	return created, syncClose(f, err)
}

func (d osDir) read(name string) ([]byte, error) { return os.ReadFile(d.path(name)) }

func (d osDir) rename(from, to string) error { return os.Rename(d.path(from), d.path(to)) }

func (d osDir) remove(name string) error { return os.Remove(d.path(name)) }

func (d osDir) list() ([]string, error) {
	entries, err := os.ReadDir(string(d))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if name, err := unescapeName(e.Name()); err == nil && !e.IsDir() {
			names = append(names, name)
		}
	}
	return names, nil
}

func (d osDir) syncDir() error {
	f, err := os.Open(string(d))
	if err != nil {
		return err
	}
	return syncClose(f, nil)
}

// syncClose syncs and closes f, after err from writing it.
func syncClose(f *os.File, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

const hexDigits = "0123456789abcdef"

// escapeName maps an arbitrary byte string onto a filesystem-safe name:
// each unsafe byte becomes _XX (two hex digits), losslessly.
func escapeName(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
			b.WriteByte(hexDigits[c>>4])
			b.WriteByte(hexDigits[c&0xf])
		}
	}
	return b.String()
}

func unescapeName(name string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(name); {
		if name[i] != '_' {
			b.WriteByte(name[i])
			i++
			continue
		}
		if i+3 > len(name) {
			return "", fmt.Errorf("storage: bad escaped name %q", name)
		}
		hi := strings.IndexByte(hexDigits, name[i+1])
		lo := strings.IndexByte(hexDigits, name[i+2])
		if hi < 0 || lo < 0 {
			return "", fmt.Errorf("storage: bad escaped name %q", name)
		}
		b.WriteByte(byte(hi<<4 | lo))
		i += 3
	}
	return b.String(), nil
}

// memDir is a directory held in memory. A name is a map key as it
// stands: nothing is joined or escaped. A write is as durable as it will
// ever be when it lands, so syncDir has nothing to do.
type memDir map[string][]byte

func (d memDir) write(name string, data []byte) error {
	d[name] = append([]byte(nil), data...)
	return nil
}

func (d memDir) append(name string, data []byte) (bool, error) {
	old, ok := d[name]
	d[name] = append(old, data...)
	return !ok, nil
}

func (d memDir) read(name string) ([]byte, error) {
	data, ok := d[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), data...), nil
}

func (d memDir) rename(from, to string) error {
	data, ok := d[from]
	if !ok {
		return os.ErrNotExist
	}
	delete(d, from)
	d[to] = data
	return nil
}

func (d memDir) remove(name string) error {
	if _, ok := d[name]; !ok {
		return os.ErrNotExist
	}
	delete(d, name)
	return nil
}

func (d memDir) list() ([]string, error) {
	names := make([]string, 0, len(d))
	for name := range d {
		names = append(names, name)
	}
	return names, nil
}

func (memDir) syncDir() error { return nil }
