package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"srlproc/internal/core"
)

// DiskStore is the durable ResultStore. Layout under the root:
//
//	index/<stamp-digest>/<fingerprint>.json   one Entry per key
//	sha256/<hh>/<hash>.json                   content-addressed Results documents
//	quarantine/                               files that failed hash or decode checks
//
// Every file lands via write-to-temp + fsync + atomic rename, so a crash
// mid-write leaves at most a stale .tmp- file (swept on Open), never a
// half-written document. Reads re-hash the content file and re-verify the
// decode; any mismatch moves the file to quarantine/ and reports a miss, so
// corruption is repaired by recomputation rather than surfaced as data.
type DiskStore struct {
	root string

	mu     sync.Mutex
	hits   uint64
	misses uint64
	puts   uint64
	quar   uint64
}

// OpenDisk opens (creating if needed) a disk store rooted at dir. Stale
// temporary files left by a crashed writer are removed.
func OpenDisk(dir string) (*DiskStore, error) {
	for _, sub := range []string{"index", "sha256", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	s := &DiskStore{root: dir}
	if err := s.sweepTemp(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepTemp removes .tmp- files abandoned by a writer that crashed between
// CreateTemp and rename.
func (s *DiskStore) sweepTemp() error {
	return filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			if rmErr := os.Remove(path); rmErr != nil {
				return fmt.Errorf("store: sweep %s: %w", path, rmErr)
			}
		}
		return nil
	})
}

// indexPath returns the Entry file for key. The stamp is folded in as a
// short digest directory, so a stamp of any form is a safe directory name.
func (s *DiskStore) indexPath(key Key) string {
	sum := sha256.Sum256([]byte(key.Stamp))
	return filepath.Join(s.root, "index", hex.EncodeToString(sum[:])[:12], key.FingerprintHex()+".json")
}

func (s *DiskStore) contentPath(hash string) string {
	return filepath.Join(s.root, "sha256", hash[:2], hash+".json")
}

// writeFileAtomic writes data to path via a sibling temp file, fsync and
// rename, creating parent directories as needed.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// quarantine moves a failed file aside (never deleting evidence) and counts
// it. Renaming into quarantine/ keeps this atomic too.
func (s *DiskStore) quarantine(path, reason string) {
	dst := filepath.Join(s.root, "quarantine",
		fmt.Sprintf("%d-%s", time.Now().UnixNano(), filepath.Base(path)))
	if err := os.Rename(path, dst); err != nil {
		// Fall back to removal so the bad file cannot be served again.
		os.Remove(path)
	}
	s.mu.Lock()
	s.quar++
	s.mu.Unlock()
	_ = reason
}

func (s *DiskStore) countMiss() { s.mu.Lock(); s.misses++; s.mu.Unlock() }

// Get implements ResultStore. The content file is re-hashed and re-decoded
// on every read; a file that fails either check is quarantined, its index
// entry removed, and the call reports a clean miss.
func (s *DiskStore) Get(key Key) (*core.Results, bool, error) {
	ipath := s.indexPath(key)
	idoc, err := os.ReadFile(ipath)
	if err != nil {
		if os.IsNotExist(err) {
			s.countMiss()
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: read index: %w", err)
	}
	var e Entry
	if err := json.Unmarshal(idoc, &e); err != nil || e.Stamp != key.Stamp || len(e.Hash) < 2 {
		s.quarantine(ipath, "index decode/stamp mismatch")
		s.countMiss()
		return nil, false, nil
	}
	cpath := s.contentPath(e.Hash)
	doc, err := os.ReadFile(cpath)
	if err != nil {
		if os.IsNotExist(err) {
			// Index points at missing content: drop the dangling entry.
			os.Remove(ipath)
			s.countMiss()
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: read content: %w", err)
	}
	if hashHex(doc) != e.Hash {
		s.quarantine(cpath, "content hash mismatch")
		os.Remove(ipath)
		s.countMiss()
		return nil, false, nil
	}
	res, err := Decode(doc)
	if err != nil {
		s.quarantine(cpath, "content decode failure")
		os.Remove(ipath)
		s.countMiss()
		return nil, false, nil
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return res, true, nil
}

// Put implements ResultStore. Documents are deduplicated by content hash;
// a result that fails the round-trip gate writes nothing and returns the
// wrapped ErrNotPersistable.
func (s *DiskStore) Put(key Key, res *core.Results) (Entry, error) {
	doc, err := Encode(res)
	if err != nil {
		return Entry{}, err
	}
	e := Entry{
		Fingerprint: key.FingerprintHex(),
		Stamp:       key.Stamp,
		Suite:       res.Suite.String(),
		Design:      res.Design.String(),
		Hash:        hashHex(doc),
		Size:        int64(len(doc)),
		CreatedUnix: time.Now().Unix(),
	}
	cpath := s.contentPath(e.Hash)
	if _, statErr := os.Stat(cpath); os.IsNotExist(statErr) {
		if err := writeFileAtomic(cpath, doc); err != nil {
			return Entry{}, fmt.Errorf("store: write content: %w", err)
		}
	}
	idoc, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return Entry{}, fmt.Errorf("store: marshal index entry: %w", err)
	}
	if err := writeFileAtomic(s.indexPath(key), append(idoc, '\n')); err != nil {
		return Entry{}, fmt.Errorf("store: write index: %w", err)
	}
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return e, nil
}

// Stats implements ResultStore. Entries and ResultBytes are counted from
// the index files (a document shared by several keys counts once), so a
// snapshot never re-reads content files; unreadable index files are
// skipped.
func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Puts:        s.puts,
		Quarantined: s.quar,
	}
	s.mu.Unlock()
	seen := make(map[string]bool)
	filepath.WalkDir(filepath.Join(s.root, "index"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".json") {
			return nil
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		var e Entry
		if json.Unmarshal(doc, &e) != nil {
			return nil
		}
		st.Entries++
		if !seen[e.Hash] {
			seen[e.Hash] = true
			st.ResultBytes += e.Size
		}
		return nil
	})
	return st
}

// Close implements ResultStore; the disk tier holds no open handles between
// calls, so it is a no-op.
func (s *DiskStore) Close() error { return nil }
