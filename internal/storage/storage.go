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

// MemStore is an in-memory Store, for tests and benchmarks. Each log is
// one byte stream in FileStore's framing, so an append copies the record
// into the stream and allocates nothing of its own.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
	logs  map[string][]byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		blobs: make(map[string][]byte),
		logs:  make(map[string][]byte),
	}
}

// PutBlob implements Store.
func (s *MemStore) PutBlob(id string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.blobs[id] = cp
	s.mu.Unlock()
	return nil
}

// GetBlob implements Store.
func (s *MemStore) GetBlob(id string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.blobs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: blob %q", ErrNotFound, id)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// DeleteBlob implements Store.
func (s *MemStore) DeleteBlob(id string) error {
	s.mu.Lock()
	delete(s.blobs, id)
	s.mu.Unlock()
	return nil
}

// ListBlobs implements Store.
func (s *MemStore) ListBlobs(prefix string) ([]string, error) {
	s.mu.RLock()
	var ids []string
	for id := range s.blobs {
		if strings.HasPrefix(id, prefix) {
			ids = append(ids, id)
		}
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids, nil
}

// AppendLog implements Store.
func (s *MemStore) AppendLog(name string, rec []byte) error {
	s.mu.Lock()
	s.logs[name] = appendRecord(s.logs[name], rec)
	s.mu.Unlock()
	return nil
}

// ReadLog implements Store.
func (s *MemStore) ReadLog(name string) ([][]byte, error) {
	s.mu.RLock()
	stream := append([]byte(nil), s.logs[name]...)
	s.mu.RUnlock()
	return splitLog(stream)
}

// TruncateLog implements Store.
func (s *MemStore) TruncateLog(name string) error {
	s.mu.Lock()
	delete(s.logs, name)
	s.mu.Unlock()
	return nil
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

// FileStore is a directory-backed Store. Blob ids and log names are
// percent-free path-escaped into file names; logs are record streams
// fsynced per append.
type FileStore struct {
	dir string
	mu  sync.Mutex // serialises log appends per store
}

var _ Store = (*FileStore)(nil)

// NewFileStore creates (if necessary) and opens a store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "logs"), 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &FileStore{dir: dir}, nil
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

func (s *FileStore) blobPath(id string) string {
	return filepath.Join(s.dir, "blobs", escapeName(id))
}

func (s *FileStore) logPath(name string) string {
	return filepath.Join(s.dir, "logs", escapeName(name))
}

// PutBlob implements Store. The write is atomic (rename) and synced.
func (s *FileStore) PutBlob(id string, data []byte) error {
	path := s.blobPath(id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// GetBlob implements Store.
func (s *FileStore) GetBlob(id string) ([]byte, error) {
	data, err := os.ReadFile(s.blobPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: blob %q", ErrNotFound, id)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return data, nil
}

// DeleteBlob implements Store.
func (s *FileStore) DeleteBlob(id string) error {
	err := os.Remove(s.blobPath(id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// ListBlobs implements Store.
func (s *FileStore) ListBlobs(prefix string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "blobs"))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		id, err := unescapeName(e.Name())
		if err != nil {
			continue
		}
		if strings.HasPrefix(id, prefix) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// AppendLog implements Store.
func (s *FileStore) AppendLog(name string, rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(s.logPath(name), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(appendRecord(nil, rec)); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// ReadLog implements Store.
func (s *FileStore) ReadLog(name string) ([][]byte, error) {
	data, err := os.ReadFile(s.logPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return splitLog(data)
}

// TruncateLog implements Store.
func (s *FileStore) TruncateLog(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.logPath(name))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}
