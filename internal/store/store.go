// Package store is the persistent tier of the result pipeline: a
// ResultStore holds the canonical Results JSON document of every completed
// simulation point, keyed by the point's core.PointFingerprint plus a
// code-version stamp, so a restarted process replays an identical sweep
// entirely from durable state instead of recomputing it.
//
// DiskStore is the implementation: content-addressed files
// (sha256/<hh>/<hash>.json) plus a small per-key index, with atomic
// rename-on-write, hash re-verification on every read and quarantine of
// corrupted files.
//
// The store only persists documents that provably round-trip: Encode
// re-hydrates its own output and requires byte equality before anything is
// written. Results carrying process-lifetime artifacts (a live Timeline or
// TraceWriter ring) do not round-trip through their summary JSON form, so
// Put rejects them with ErrNotPersistable and they are never cached on
// disk.
//
// internal/sweep.Cache layers its in-memory LRU as tier 1 over a
// ResultStore: misses fall through to the store before simulating, and
// completions write through asynchronously. See Cache.AttachStore.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"

	"srlproc/internal/core"
)

// Key identifies one persisted result: the simulation point's stable
// fingerprint plus the code-version stamp of the binary that produced it.
// The stamp is part of the key, not a filter: a rebuilt binary computes
// under a new stamp and can never be served another build's results, which
// is what makes persisting across restarts sound (the determinism tests
// pin byte-stable output only per build).
type Key struct {
	Fingerprint uint64
	Stamp       string
}

// FingerprintHex renders the fingerprint in the fixed-width hex form used
// by index filenames, the X-Srlproc-Point HTTP header and Entry documents.
func (k Key) FingerprintHex() string { return fmt.Sprintf("%016x", k.Fingerprint) }

// Entry is the index record of one persisted key.
type Entry struct {
	Fingerprint string `json:"fingerprint"` // Key.FingerprintHex
	Stamp       string `json:"stamp"`

	// Suite and Design label the point for humans browsing the store.
	Suite  string `json:"suite,omitempty"`
	Design string `json:"design,omitempty"`

	// Hash and Size address the canonical Results document.
	Hash string `json:"hash"`
	Size int64  `json:"size"`

	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Stats is a point-in-time snapshot of a store's contents and counters.
type Stats struct {
	Entries     int   `json:"entries"`
	ResultBytes int64 `json:"result_bytes"`

	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Quarantined uint64 `json:"quarantined"`
}

// ResultStore is the persistent result tier.
//
// Get returns the rehydrated result for key, or (nil, false, nil) when the
// store holds nothing servable for it — absent, written under a different
// stamp, or quarantined as corrupt. Corruption is never surfaced to the
// caller as data or as an error: the offending files are quarantined and
// the point simply recomputes.
//
// Put persists one completed result. A result whose canonical document
// does not round-trip byte-identically is not persisted: Put writes
// nothing and returns an error wrapping ErrNotPersistable.
//
// Implementations are safe for concurrent use.
type ResultStore interface {
	Get(key Key) (*core.Results, bool, error)
	Put(key Key, res *core.Results) (Entry, error)
	Stats() Stats
	Close() error
}

// ErrNotPersistable reports that a result's canonical JSON document does
// not survive an unmarshal/re-marshal round-trip, so persisting it could
// not honour the byte-identical warm-restart guarantee. Results carrying
// live observability artifacts (Timeline, TraceWriter, Divergences) are
// the expected case.
var ErrNotPersistable = errors.New("store: result document does not round-trip")

// Encode renders res as its canonical JSON document and proves the
// document rehydrates byte-identically: unmarshal into a fresh Results,
// re-marshal, compare. Anything Encode accepts is therefore safe to serve
// from the store in place of a fresh simulation. Returns ErrNotPersistable
// (wrapped) when the round-trip fails.
func Encode(res *core.Results) ([]byte, error) {
	doc, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("store: marshal result: %w", err)
	}
	back, err := Decode(doc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotPersistable, err)
	}
	redoc, err := json.Marshal(back)
	if err != nil {
		return nil, fmt.Errorf("%w: re-marshal: %v", ErrNotPersistable, err)
	}
	if !bytes.Equal(doc, redoc) {
		return nil, ErrNotPersistable
	}
	return doc, nil
}

// Decode rehydrates a canonical Results document produced by Encode.
func Decode(doc []byte) (*core.Results, error) {
	res := new(core.Results)
	if err := json.Unmarshal(doc, res); err != nil {
		return nil, err
	}
	return res, nil
}

var (
	codeStampOnce sync.Once
	codeStamp     string
)

// CodeStamp returns this binary's code-version stamp: the hex SHA-256 of
// the running executable, computed once per process. Folding the stamp
// into every store Key means a rebuilt binary starts a fresh keyspace and
// can never serve results persisted by different code — simulator output
// is only guaranteed byte-stable within one build. Hashing the executable
// rather than reading its build info is what makes this hold for `go run`
// builds and edited working trees, which all share one build-info version.
// Only when the executable cannot be read does the stamp fall back to the
// module version from the build info.
func CodeStamp() string {
	codeStampOnce.Do(func() {
		codeStamp = readCodeStamp()
	})
	return codeStamp
}

func readCodeStamp() string {
	if exe, err := os.Executable(); err == nil {
		if stamp, err := fileSHA256(exe); err == nil {
			return stamp
		}
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	if bi.Main.Version == "" {
		return "(devel)"
	}
	return bi.Main.Version
}

// fileSHA256 returns the hex SHA-256 of the file at path, streamed so a
// large executable is never held in memory.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashHex returns the hex SHA-256 content address of data.
func hashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
