// Package live turns the batch index into a serving system: it accepts
// document writes — adds, deletes, and updates — while queries run,
// with no full rebuild and no stop-the-world swap.
//
// The write lifecycle is buffer → seal → merge → swap:
//
//	buffer  Writer.Add interns terms into the master lexicon, records
//	        global term statistics, and appends the document to an
//	        in-memory buffer. Buffered documents become searchable at
//	        the next seal (near-real-time semantics).
//	seal    When the buffer trips a size threshold (documents or
//	        tokens), or Flush is called, the buffer is built into an
//	        immutable block-max index, persisted as an on-disk segment
//	        (index.Persist), reopened through its own buffer pool, and
//	        appended to the active segment chain.
//	merge   A background Merger picks runs of small adjacent segments
//	        (tiered policy, priced by internal/cost) and compacts them
//	        into one block-max segment (index.Merge), retiring the
//	        inputs.
//	swap    Every seal and merge commits atomically: the manifest is
//	        written via temp-file + rename, and a new immutable
//	        generation (segment set + frozen lexicon + corpus
//	        statistics + per-segment engines) is installed with one
//	        pointer swap.
//
// The delete lifecycle is tombstone → filtered search → merge purge:
//
//	tombstone  Writer.Delete clones the segment's alive bitmap, kills
//	           the bit, persists the new bitmap version next to the
//	           segment, and commits by manifest swap — crash-atomic
//	           like every other commit. Update is delete + re-add
//	           under a fresh global id.
//	filter     Generations read each segment through index.WithAlive:
//	           iterators skip dead postings, engines run unmodified,
//	           and the unfiltered block/list bounds stay valid upper
//	           bounds. A tombstone ledger (the deleted documents' term
//	           statistics, recovered from per-segment forward
//	           sidecars) is subtracted from the frozen lexicon at
//	           install, so ranking statistics cover exactly the
//	           survivors — results stay byte-identical to a one-shot
//	           build over the surviving documents.
//	purge      Merges drop dead documents' postings (ids stay as holes
//	           so global ids never shift) and re-tighten every bound;
//	           a segment whose stored-dead fraction reaches
//	           PurgeDeadFrac is rewritten alone.
//
// The snapshot/refcount contract: a search acquires the current
// generation (refcount +1) and evaluates against it end to end, so a
// merge — or a delete — committing mid-query never invalidates the
// view the query is reading: bitmaps are immutable values, swapped per
// commit. Segments are refcounted by the generations that contain
// them; when the last generation referencing a merged-away segment is
// released, its file is closed and its directory deleted. A crash
// between the manifest swap and that deferred deletion leaves stale
// segment directories behind — Open treats the manifest as the root of
// truth and garbage-collects any seg-* directory (or alive-bitmap
// version file) it does not list.
//
// Scoring is globally consistent: each generation ranks every segment
// with the latest seal's frozen lexicon snapshot plus the generation's
// corpus statistics — both covering exactly the sealed, searchable
// documents (the same global-statistics fix the parallel layer applies
// to shards) — so the merged top N is byte-identical to a one-shot
// build over the same documents.
// Durability is seal-grained: documents still in the buffer at a crash
// are lost along with their statistics — the master lexicon reopens
// from the segment persisting the newest lexicon snapshot (highest
// capture ordinal), which covers exactly the sealed documents. A live
// directory is single-writer: Open takes an advisory flock (released
// by the kernel on process death), so a second process fails cleanly
// instead of interleaving manifests.
package live

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/collection"
	"repro/internal/lexicon"
	"repro/internal/storage"
	"repro/internal/tune"
)

// ErrClosed is returned by operations on a closed Writer.
var ErrClosed = errors.New("live: writer is closed")

const (
	// sealTokens seals the buffer when it holds this many tokens, however
	// few documents that is.
	sealTokens = 1 << 20
	// mergeTierFactor is the size spread a merged run may have: every
	// segment in it holds at most this factor times the run's smallest
	// segment's documents.
	mergeTierFactor = 3
)

// Config sizes a live index. Zero values take the documented defaults.
type Config struct {
	// Dir is the live index directory (manifest + segment directories).
	// Required.
	Dir string
	// SealDocs seals the buffer when it holds this many documents.
	// Default 512.
	SealDocs int
	// FlushEvery seals a non-empty buffer at this interval from a
	// background goroutine, bounding search-visibility latency under
	// trickle writes. 0 (default) disables the timer; Flush remains
	// available.
	FlushEvery time.Duration
	// PoolPages is the buffer-pool capacity, in pages, each open segment
	// is served through. Default 64, floor 8.
	PoolPages int
	// Workers bounds the per-search segment fan-out. Default
	// runtime.GOMAXPROCS(0).
	Workers int
	// MergeFanIn is the run length the tiered merge policy looks for.
	// Default 4.
	MergeFanIn int
	// MergeHorizon is the amortization horizon, in queries, the cost
	// model uses to decide whether a merge pays for itself
	// (cost.MergeEstimate.Worthwhile). Valid range: >= 0. Default (0)
	// is 1000; negative values are rejected by Open — they would make
	// every merge non-worthwhile and silently disable background
	// compaction forever.
	MergeHorizon int
	// BackgroundMerge starts the merger goroutine. When false, merges
	// only run through MergeAll — the deterministic mode the benchmark
	// harness uses.
	BackgroundMerge bool
	// PurgeDeadFrac triggers a single-segment purge rewrite when at
	// least this fraction of a segment's stored documents are tombstoned
	// (dead but still occupying postings). The rewrite drops their
	// postings and re-tightens the block bounds. Valid range: >= 0.
	// Default (0) is 0.5; values above 1 disable purge rewrites
	// (tombstones are then only reclaimed when a tiered merge happens to
	// cover the segment); negative values are rejected by Open — every
	// segment would qualify for an endless rewrite loop.
	PurgeDeadFrac float64
	// Clock supplies the flush timer, injectable so seal-timer behavior
	// is deterministically testable. Default: the wall clock
	// (time.NewTicker).
	Clock Clock
	// WrapDevice, if set, wraps the page device of every segment as it
	// is opened — the fault-injection seam. The wrapper sees the
	// segment's directory name and its raw file device and returns the
	// device the checksum layer and buffer pool are stacked on (e.g. a
	// storage.FaultDevice the test keeps a handle to). nil serves the
	// file directly.
	WrapDevice func(segment string, dev storage.Device) storage.Device
	// CrashHook, if set, is consulted at every named CrashPoint of the
	// seal, merge, and delete commit protocols. Returning true simulates
	// a process death at that point: the operation aborts with the
	// directory exactly as a crash there would leave it, and the writer
	// is poisoned. Crash-matrix tests arm one point per run and assert
	// what Open recovers.
	CrashHook func(CrashPoint) bool
	// ReverifyEvery runs the background re-verification loop at this
	// interval (on Clock ticks): quarantined segments whose full re-read
	// matches the open-time page checksums return to service. 0
	// (default) disables the loop; Reverify remains callable.
	ReverifyEvery time.Duration
	// ResultCacheBytes bounds the query result cache. Entries are whole
	// Results keyed by (generation, N, resolved query terms), so a hit
	// returns the byte-identical answer the search would have computed;
	// every commit moves the generation and thereby invalidates the
	// cache wholesale. Degraded answers are never cached. 0 (default)
	// disables the cache.
	ResultCacheBytes int64
	// BlockCacheBytes bounds the shared hot-block cache: decoded-input
	// postings blocks of all segments, admitted by a TinyLFU frequency
	// sketch so one scan cannot flush the resident hot set. A hit serves
	// the block without touching the segment's buffer pool (and without
	// counting a fault). 0 (default) disables the cache.
	BlockCacheBytes int64
	// Tune, if set, closes the loop between the cost model and the live
	// counters: the writer feeds it per-query decode/fault observations,
	// per-merge realized costs, and pool fault latencies; in return it
	// supplies the planner's coefficients — calibrated page weight and
	// fan-out, the amortization horizon, the realized/predicted cost
	// ratio, and the range of run lengths to consider — and SealDocs and
	// PoolPages adapt within the tuner's configured bounds. nil (default)
	// is the same planner with static coefficients: the defaults above
	// and the single run length MergeFanIn. A Tuner must not be shared
	// between writers.
	Tune *tune.Tuner
	// Follower opens the directory in replica mode: the writer is
	// read-only (Add/Flush/Delete/Update/MergeAll fail with ErrReadOnly,
	// and BackgroundMerge/FlushEvery must be unset) and new state arrives
	// only through ApplyManifest, after a replication puller has
	// committed the referenced segment files under Dir. Open's stale-
	// artifact GC also reclaims pull staging directories ("pull-*") and
	// stray temp files a mid-pull crash left behind. Searches, snapshots,
	// caches, and Reverify work exactly as on a leader.
	Follower bool
}

func (c *Config) fillDefaults() {
	if c.SealDocs == 0 {
		c.SealDocs = 512
	}
	if c.PoolPages == 0 {
		c.PoolPages = 64
	}
	if c.PoolPages < 8 {
		c.PoolPages = 8
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MergeFanIn == 0 {
		c.MergeFanIn = 4
	}
	if c.MergeHorizon == 0 {
		c.MergeHorizon = 1000
	}
	if c.PurgeDeadFrac == 0 {
		c.PurgeDeadFrac = 0.5
	}
	if c.Clock == nil {
		c.Clock = wallClock{}
	}
}

// TermCount is one distinct term of an incoming document with its
// within-document frequency.
type TermCount struct {
	Term string
	TF   int32
}

// DocTerms spells out d's term bag by name through lex, the lexicon d's
// term ids belong to: the form Writer.Add and Writer.Update take.
func DocTerms(lex *lexicon.Lexicon, d collection.Document) []TermCount {
	terms := make([]TermCount, len(d.Terms))
	for i, tf := range d.Terms {
		terms[i] = TermCount{Term: lex.Name(tf.Term), TF: tf.TF}
	}
	return terms
}

// WriterStats is a point-in-time snapshot of the writer's accounting.
type WriterStats struct {
	DocsAdded    int64  // documents accepted by Add
	DocsSealed   int64  // documents made durable in segments (dead ones included)
	DocsDeleted  int64  // documents tombstoned by Delete/Update
	DocsAlive    int64  // sealed documents currently alive
	BufferedDocs int    // documents awaiting the next seal (dead ones excluded)
	Seals        int64  // segments sealed
	Merges       int64  // background merges committed (purge rewrites included)
	Segments     int    // active segments in the current generation
	Generation   uint64 // current manifest generation
}
