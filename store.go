package mmqjp

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Store is a place snapshots live between process lifetimes. Save must be
// atomic: a crash mid-save (or a failed write function) leaves the previous
// snapshot intact, so there is always a consistent snapshot to restart from.
type Store interface {
	// Save replaces the stored snapshot with whatever write produces.
	Save(write func(w io.Writer) error) error
	// Open returns the current snapshot for reading; the caller closes it.
	// Returns ErrNoSnapshot when nothing has ever been saved.
	Open() (io.ReadCloser, error)
}

// ErrNoSnapshot is returned by Store.Open when the store is empty — for a
// server, the signal to start fresh rather than restore.
var ErrNoSnapshot = errors.New("mmqjp: no snapshot in store")

// SnapshotTo saves a consistent engine snapshot into the store (see
// Snapshot for the consistency guarantees).
func (e *Engine) SnapshotTo(s Store) error {
	return s.Save(e.Snapshot)
}

// OpenEngineFrom rebuilds an engine from the store's current snapshot. It
// returns ErrNoSnapshot (wrapped) when the store is empty; callers that
// treat an empty store as a fresh start should errors.Is against it.
func OpenEngineFrom(s Store, opts Options) (*Engine, error) {
	rc, err := s.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return OpenEngine(rc, opts)
}

// MemStore is an in-memory Store (tests, embedded use). The zero value is
// an empty store ready for use.
type MemStore struct {
	mu   sync.Mutex
	data []byte
	full bool
}

// Save buffers the snapshot fully before replacing the previous one, so a
// failed write leaves the store unchanged.
func (s *MemStore) Save(write func(w io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = buf.Bytes()
	s.full = true
	return nil
}

// Open returns the most recently saved snapshot.
func (s *MemStore) Open() (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return nil, ErrNoSnapshot
	}
	return io.NopCloser(bytes.NewReader(s.data)), nil
}

// FileStore keeps the snapshot in a single file, replaced atomically on
// every Save (write to a temporary file in the same directory, fsync,
// rename), so a crash at any point leaves either the old or the new
// snapshot — never a torn one.
type FileStore struct {
	path string
	gzip bool
	mu   sync.Mutex
}

// StoreOption configures a FileStore.
type StoreOption func(*FileStore)

// WithGzip makes Save gzip-compress the snapshot file. Open is
// format-sniffing either way: it decompresses gzipped files and passes
// plain ones through, so a store can be switched to (or away from)
// compression and still restore every previously saved snapshot.
func WithGzip() StoreOption {
	return func(s *FileStore) { s.gzip = true }
}

// NewFileStore returns a store backed by the file at path. The file need
// not exist yet; its directory must.
func NewFileStore(path string, opts ...StoreOption) *FileStore {
	s := &FileStore{path: path}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Save writes the snapshot to a temporary file beside the store's path,
// renames it over the path and syncs the directory, so the rename itself
// survives a crash. The temporary file is created in the path's own
// directory (the working directory for a bare file name): a rename only
// replaces a file atomically within one filesystem.
func (s *FileStore) Save(write func(w io.Writer) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("mmqjp: snapshot store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	var w io.Writer = tmp
	var zw *gzip.Writer
	if s.gzip {
		zw = gzip.NewWriter(tmp)
		w = zw
	}
	if err := write(w); err != nil {
		tmp.Close()
		return err
	}
	// The gzip stream must be finalized before the fsync, or the file would
	// be durably truncated mid-stream.
	if zw != nil {
		if err := zw.Close(); err != nil {
			tmp.Close()
			return fmt.Errorf("mmqjp: snapshot store: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("mmqjp: snapshot store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("mmqjp: snapshot store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("mmqjp: snapshot store: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("mmqjp: snapshot store: %w", err)
	}
	return nil
}

// syncDir flushes a directory's entries — a rename into it — to stable
// storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens the snapshot file; a missing file reports ErrNoSnapshot. The
// on-disk format is sniffed — gzipped snapshots are decompressed, plain
// JSON passes through — independent of whether this store was built with
// WithGzip, so restores work across compression-setting changes.
func (s *FileStore) Open() (io.ReadCloser, error) {
	f, err := os.Open(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w (%s)", ErrNoSnapshot, s.path)
	}
	if err != nil {
		return nil, fmt.Errorf("mmqjp: snapshot store: %w", err)
	}
	br := bufio.NewReader(f)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("mmqjp: snapshot store: %w", err)
		}
		// Closing checks the gzip stream as far as it was read, and closes
		// the file.
		return readCloser{zr, func() error { return errors.Join(zr.Close(), f.Close()) }}, nil
	}
	// A snapshot shorter than two bytes is not valid JSON either; let the
	// decoder report that rather than masking the Peek error here. The
	// sniffing reader holds the peeked bytes, so it stays in front of the
	// file.
	return readCloser{br, f.Close}, nil
}

// readCloser reads through the reader Open put in front of the file.
type readCloser struct {
	io.Reader
	close func() error
}

func (r readCloser) Close() error { return r.close() }
