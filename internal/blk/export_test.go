package blk

// CachedPath returns the path constants NewQueue cached: the combined
// overheads (whose LockHold Pump charges per dispatch) and the
// in-flight dispatch limit.
func (q *Queue) CachedPath() (Overheads, int) { return q.over, q.limit }
