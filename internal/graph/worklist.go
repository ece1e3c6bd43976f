package graph

// LevelWorklist is an epoch-stamped per-level worklist for reverse-cone
// propagation over a leveled DAG: seed it with the vertices whose derived
// state may have changed, then drain it in descending level order, letting
// the consumer push predecessors (which sit at strictly lower levels) as
// it discovers their inputs changed. Because every edge steps to a
// strictly higher level, descending order guarantees a vertex is visited
// only after every pending successor has been finalized — the property
// that makes unchanged-row early-outs sound (see route.ShardedEngine's
// incremental guide, the primary consumer, and DESIGN.md §2.13).
//
// Membership is deduplicated with an epoch-stamped mark array, so a full
// seed/drain round costs O(#pushed + #levels touched) with zero
// steady-state allocations once the per-level buckets have reached their
// high-water capacity. A LevelWorklist is single-goroutine state; it must
// not be shared without external synchronization.
type LevelWorklist struct {
	level   []int32 // per-vertex level (shared with the Levels)
	mark    []uint32
	epoch   uint32
	buckets [][]int32
	hi      int // highest level holding a pending vertex; -1 when empty
	cur     int // level currently draining; len(buckets) when not draining
	idx     int // next unread index within buckets[cur]
}

// NewLevelWorklist returns a worklist over the leveling lv covering n
// vertices (n = the graph's vertex count; lv.PerVertex must have length
// n). Each bucket is preallocated to its level's width — epoch dedup
// bounds a bucket's length by it — so Push provably never reallocates:
// the worklist's whole lifetime costs the constructor's O(n) and nothing
// after.
func NewLevelWorklist(lv *Levels, n int) *LevelWorklist {
	first := lv.First()
	buckets := make([][]int32, lv.NumLevels())
	for l := range buckets {
		buckets[l] = make([]int32, 0, first[l+1]-first[l])
	}
	return &LevelWorklist{
		level:   lv.PerVertex(),
		mark:    make([]uint32, n),
		buckets: buckets,
		hi:      -1,
		cur:     lv.NumLevels(),
	}
}

// Begin starts a new seed/drain round, forgetting any previous membership
// in O(levels touched) (epoch bump; the mark array is cleared only on the
// ~4-billion-round wraparound).
func (wl *LevelWorklist) Begin() {
	wl.epoch++
	if wl.epoch == 0 {
		clear(wl.mark)
		wl.epoch = 1
	}
	for l := wl.hi; l >= 0; l-- {
		wl.buckets[l] = wl.buckets[l][:0]
	}
	wl.hi = -1
	wl.cur = len(wl.buckets)
	wl.idx = 0
}

// Push adds v to the current round unless it is already pending or was
// already drained this round; it reports whether v was newly added. Once
// draining has started (Next returned a vertex), pushes must target
// strictly lower levels than the one being drained — the reverse-cone
// contract: a consumer may only wake predecessors. Violating it panics
// rather than silently mis-ordering the sweep.
func (wl *LevelWorklist) Push(v int32) bool {
	if wl.mark[v] == wl.epoch {
		return false
	}
	wl.mark[v] = wl.epoch
	l := int(wl.level[v])
	if l >= wl.cur {
		panic("graph: LevelWorklist.Push at or above the level being drained")
	}
	wl.buckets[l] = append(wl.buckets[l], v)
	if l > wl.hi {
		wl.hi = l
	}
	return true
}

// Next returns the next pending vertex in descending level order (push
// order within a level: the seed order, then the consumer's own push
// order — fully deterministic), or ok=false when the round is drained.
// After a false return the worklist is empty and ready for the next
// Begin.
func (wl *LevelWorklist) Next() (v int32, ok bool) {
	if wl.cur == len(wl.buckets) {
		// First pull of the round: start at the highest seeded level.
		if wl.hi < 0 {
			return 0, false
		}
		wl.cur = wl.hi
	}
	for wl.cur >= 0 {
		if b := wl.buckets[wl.cur]; wl.idx < len(b) {
			v = b[wl.idx]
			wl.idx++
			return v, true
		}
		wl.buckets[wl.cur] = wl.buckets[wl.cur][:0]
		wl.cur--
		wl.idx = 0
	}
	wl.hi = -1
	wl.cur = len(wl.buckets)
	return 0, false
}
