package live

// CacheStats is a point-in-time view of the two cache layers on the
// query path: the whole-answer result cache and the shared hot-block
// cache under every segment's postings store. Counters are cumulative
// since Open.
type CacheStats struct {
	// Result cache (zero-valued when Config.ResultCacheBytes is 0).
	ResultHits    int64
	ResultMisses  int64
	ResultBytes   int64
	ResultEntries int64
	// SingleflightShared counts answers served from another identical
	// in-flight query's search instead of running their own.
	SingleflightShared int64

	// Hot-block cache (zero-valued when Config.BlockCacheBytes is 0).
	BlockHits    int64
	BlockMisses  int64
	BlockAdmits  int64
	BlockRejects int64
	BlockEvicts  int64
	BlockBytes   int64
	BlockEntries int64
}

// CacheStats samples every cache layer's counters.
func (w *Writer) CacheStats() CacheStats {
	var cs CacheStats
	if w.resCache != nil {
		cs.ResultHits, cs.ResultMisses, cs.SingleflightShared,
			cs.ResultBytes, cs.ResultEntries = w.resCache.stats()
	}
	if w.blockCache != nil {
		s := w.blockCache.Stats()
		cs.BlockHits = s.Hits
		cs.BlockMisses = s.Misses
		cs.BlockAdmits = s.Admits
		cs.BlockRejects = s.Rejects
		cs.BlockEvicts = s.Evicts
		cs.BlockBytes = s.Bytes
		cs.BlockEntries = s.Entries
	}
	return cs
}
