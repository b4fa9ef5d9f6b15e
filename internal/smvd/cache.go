package smvd

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/smv"
)

// Cache is the bounded in-memory session cache: a map from model key to
// session with LRU ordering, an optional per-session node budget, and
// an optional disk cache consulted on miss (warm start) and written on
// eviction and shutdown.
type Cache struct {
	max        int
	nodeBudget int
	disk       *DiskStore // nil without a directory

	mu       sync.Mutex
	sessions map[string]*entry
	order    *list.List // front = most recently used

	// Counters are atomics so /statsz never contends with compilation.
	hits            atomic.Uint64
	misses          atomic.Uint64
	diskWarmStarts  atomic.Uint64
	compileErrors   atomic.Uint64
	evictionsLRU    atomic.Uint64
	evictionsBudget atomic.Uint64
}

type entry struct {
	key  string
	once sync.Once
	sess *Session
	err  error
	elem *list.Element
}

// CacheStats is the cache-wide block of /statsz.
type CacheStats struct {
	Sessions        int    `json:"sessions"`
	MaxSessions     int    `json:"max_sessions"`
	NodeBudget      int    `json:"node_budget,omitempty"`
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	DiskWarmStarts  uint64 `json:"disk_warm_starts"`
	CompileErrors   uint64 `json:"compile_errors"`
	EvictionsLRU    uint64 `json:"evictions_lru"`
	EvictionsBudget uint64 `json:"evictions_budget"`
}

// NewCache builds a session cache holding at most max sessions (min 1),
// evicting any session whose manager exceeds nodeBudget live nodes
// after a query (0: unbounded), persisting warm-start records under
// diskDir ("": no disk cache).
func NewCache(max, nodeBudget int, diskDir string) (*Cache, error) {
	if max < 1 {
		max = 1
	}
	var disk *DiskStore
	if diskDir != "" {
		var err error
		if disk, err = OpenDiskStore(diskDir); err != nil {
			return nil, err
		}
	}
	return &Cache{
		max:        max,
		nodeBudget: nodeBudget,
		disk:       disk,
		sessions:   map[string]*entry{},
		order:      list.New(),
	}, nil
}

// Get returns the session for the given source and config, compiling it
// (and consulting the disk cache) on miss. Concurrent requests for the
// same key share one compilation; requests for different keys compile
// in parallel.
func (c *Cache) Get(src string, cfg smv.Config) (*Session, error) {
	key := ModelKey(src, cfg)
	c.mu.Lock()
	e, ok := c.sessions[key]
	if ok {
		c.order.MoveToFront(e.elem)
	} else {
		e = &entry{key: key}
		c.sessions[key] = e
		e.elem = c.order.PushFront(e)
	}
	c.mu.Unlock()

	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		sess, err := newSession(key, src, cfg)
		// Publish under the cache lock: evictors reach e.sess through the
		// map while holding it, concurrently with this write.
		c.mu.Lock()
		e.sess, e.err = sess, err
		c.mu.Unlock()
		if err != nil {
			c.compileErrors.Add(1)
			c.remove(e)
			return
		}
		// The session is visible in the map but every other request for
		// this key is blocked on this once, so the warm start runs
		// exclusively.
		if warm, err := c.disk.load(sess); err == nil && warm {
			c.diskWarmStarts.Add(1)
		}
		c.evictOverflow()
	})
	return e.sess, e.err
}

// remove drops the entry from the map and the LRU list.
func (c *Cache) remove(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.sessions[e.key]; ok && cur == e {
		delete(c.sessions, e.key)
		c.order.Remove(e.elem)
	}
}

// evictOverflow evicts least-recently-used sessions until the cache
// fits its bound. Evicted sessions are only unlinked — an in-flight
// query on one finishes safely on its private pointer — and their
// warm-start records are flushed in the background once the session
// lock frees up.
func (c *Cache) evictOverflow() {
	var victims []*Session
	c.mu.Lock()
	for c.order.Len() > c.max {
		back := c.order.Back()
		if back == nil {
			break
		}
		v := back.Value.(*entry)
		c.order.Remove(back)
		delete(c.sessions, v.key)
		c.evictionsLRU.Add(1)
		// A still-compiling victim has a nil sess (its own once holds the
		// only reference); there is nothing to flush for it.
		if v.sess != nil {
			victims = append(victims, v.sess)
		}
	}
	c.mu.Unlock()
	for _, s := range victims {
		c.flushAsync(s)
	}
}

// EvictOverBudget evicts the session if its manager outgrew the node
// budget, returning whether it did. Called by the server after each
// query, with the session lock already released.
func (c *Cache) EvictOverBudget(s *Session, liveNodes int) bool {
	if c.nodeBudget <= 0 || liveNodes <= c.nodeBudget || !c.unlink(s) {
		return false
	}
	c.evictionsBudget.Add(1)
	c.flushAsync(s)
	return true
}

// unlink drops s from the map and the LRU list if it is still the
// cached session for its key, reporting whether it was.
func (c *Cache) unlink(s *Session) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.sessions[s.Key]
	if !ok || e.sess != s {
		return false
	}
	delete(c.sessions, s.Key)
	c.order.Remove(e.elem)
	return true
}

// flushAsync persists an evicted session's warm-start record without
// blocking the evictor on the session lock.
func (c *Cache) flushAsync(s *Session) {
	if c.disk == nil || s == nil {
		return
	}
	go func() {
		s.mu <- struct{}{}
		defer s.unlock()
		_ = c.disk.save(s)
	}()
}

// FlushAll persists every cached session's warm-start record — the
// graceful-shutdown path. Blocks until all sessions are idle and
// written.
func (c *Cache) FlushAll() error {
	if c.disk == nil {
		return nil
	}
	c.mu.Lock()
	var all []*Session
	for _, e := range c.sessions {
		if e.sess != nil {
			all = append(all, e.sess)
		}
	}
	c.mu.Unlock()
	var firstErr error
	for _, s := range all {
		s.mu <- struct{}{}
		err := c.disk.save(s)
		s.unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats snapshots the cache-wide counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.sessions)
	c.mu.Unlock()
	return CacheStats{
		Sessions:        n,
		MaxSessions:     c.max,
		NodeBudget:      c.nodeBudget,
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		DiskWarmStarts:  c.diskWarmStarts.Load(),
		CompileErrors:   c.compileErrors.Load(),
		EvictionsLRU:    c.evictionsLRU.Load(),
		EvictionsBudget: c.evictionsBudget.Load(),
	}
}

// Sessions snapshots per-session stats for /statsz. Sessions busy with
// a query are skipped rather than blocked on.
func (c *Cache) Sessions() []SessionStats {
	c.mu.Lock()
	var all []*Session
	for e := c.order.Front(); e != nil; e = e.Next() {
		if s := e.Value.(*entry).sess; s != nil {
			all = append(all, s)
		}
	}
	c.mu.Unlock()
	var out []SessionStats
	for _, s := range all {
		select {
		case s.mu <- struct{}{}:
			out = append(out, s.stats())
			s.unlock()
		default:
			// Busy with a query: only immutable fields are safe to read.
			out = append(out, SessionStats{Key: s.Key, Busy: true})
		}
	}
	return out
}
