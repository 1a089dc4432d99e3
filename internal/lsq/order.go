package lsq

import "srlproc/internal/heapq"

// OrderTracker models the write-after-read bit array of Section 4.3: the
// store at the SRL head may update the cache during redo only after all
// loads before it in program order have executed. The hardware is a bit
// array with head/tail pointers where loads set a bit at allocate and clear
// it at completion; this model keeps the set of outstanding (allocated but
// not completed) load sequence numbers with a min-heap, which answers the
// same question: "have all loads older than seq executed?".
//
// A load may be allocated, squashed by a checkpoint restart, and allocated
// again with the same sequence number; the tracker therefore deduplicates
// heap entries and keeps the authoritative outstanding set separately.
// The heap is an index-based heapq.Heap rather than container/heap so the
// per-load Push/Pop does not box its uint64 through an interface value.
type OrderTracker struct {
	h           heapq.Heap[struct{}]
	inHeap      map[uint64]bool
	outstanding map[uint64]bool
}

// NewOrderTracker returns an empty tracker.
func NewOrderTracker() *OrderTracker {
	return &OrderTracker{
		inHeap:      make(map[uint64]bool),
		outstanding: make(map[uint64]bool),
	}
}

// LoadAllocated records a load entering the window (its bit is set).
func (t *OrderTracker) LoadAllocated(seq uint64) {
	t.outstanding[seq] = true
	if !t.inHeap[seq] {
		t.inHeap[seq] = true
		t.h.Push(seq, struct{}{})
	}
}

// LoadCompleted records a load finishing execution (its bit clears).
func (t *OrderTracker) LoadCompleted(seq uint64) {
	delete(t.outstanding, seq)
	t.drain()
}

func (t *OrderTracker) drain() {
	for t.h.Len() > 0 {
		seq, _ := t.h.Min()
		if t.outstanding[seq] {
			break
		}
		delete(t.inHeap, seq)
		t.h.PopMin()
	}
}

// AllLoadsOlderThanDone reports whether every load strictly older than seq
// has completed — the SRL head store's drain condition (loads and stores
// never share a sequence number, so the boundary case is moot in practice).
func (t *OrderTracker) AllLoadsOlderThanDone(seq uint64) bool {
	t.drain()
	if t.h.Len() == 0 {
		return true
	}
	oldest, _ := t.h.Min()
	return oldest >= seq
}

// Outstanding returns the number of loads allocated but not completed.
func (t *OrderTracker) Outstanding() int { return len(t.outstanding) }

// SquashYoungerThan discards outstanding loads strictly younger than seq:
// a load survives iff its Seq <= seq, so its bit keeps gating the SRL head.
// This is the repo-wide squash convention (see StoreQueue.SquashYoungerThan);
// callers restarting at a checkpoint whose first sequence number is fromSeq
// pass fromSeq-1.
func (t *OrderTracker) SquashYoungerThan(seq uint64) {
	for s := range t.outstanding { // order-independent: deletes by key predicate
		if s > seq {
			delete(t.outstanding, s)
		}
	}
	t.drain()
}

// Reset clears the tracker (full squash).
func (t *OrderTracker) Reset() {
	t.h.Reset()
	t.inHeap = make(map[uint64]bool)
	t.outstanding = make(map[uint64]bool)
}
