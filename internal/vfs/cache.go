package vfs

import (
	"container/list"
	"slices"
	"sort"
	"sync"
	"time"

	"doppio/internal/telemetry"
	"doppio/internal/vfs/vkernel"
)

// DefaultCacheBudget is the page-cache byte budget used when
// CacheOptions.ByteBudget is zero.
const DefaultCacheBudget = 8 << 20

// CacheOptions configures NewCached.
type CacheOptions struct {
	// ByteBudget bounds the bytes held by the whole-file page cache.
	// Zero means DefaultCacheBudget.
	ByteBudget int
	// Hub, when non-nil, receives hit/miss/eviction counters and
	// cached-vs-uncached latency histograms under the subsystem
	// "vfscache.<Name>".
	Hub *telemetry.Hub
}

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits, Misses                       int64 // page (Open) lookups
	StatHits, StatMisses, NegativeHits int64
	ReaddirHits, ReaddirMisses         int64
	Evictions                          int64
	BytesUsed                          int64
}

// CacheStatser is implemented by every backend returned from NewCached;
// callers holding only a Backend can recover the counters with a type
// assertion, the same way the kernel detects optional capabilities.
type CacheStatser interface {
	CacheStats() CacheStats
}

// NewCached wraps b in a write-through caching decorator: a
// byte-budgeted LRU whole-file page cache, a stat cache that also
// remembers negative (ENOENT) results, and a readdir cache. Every Sync
// and namespace mutation reaches the backend before its callback runs;
// the cache buffers no writes, because its callers already write whole
// files (DoppioJVM's FileOutputStream batches a file's writes into one
// writeFile on close). Wrapping a *MountFS registers an invalidation
// hook: Mount drops all cached state, since routing changed underneath
// the cache.
//
// The cache assumes it is the only writer to the backend (the standard
// single-window assumption of §5.1's browser-local backends); external
// mutation of shared stores (e.g. a CloudStore reached from another
// window) is not observed until the relevant entries age out or are
// invalidated by a local write.
func NewCached(b Backend, opts CacheOptions) Backend {
	c := &Cached{
		b:      b,
		budget: opts.ByteBudget,
		pages:  make(map[string]*cachePage),
		lru:    list.New(),
		stats:  make(map[string]cacheStat),
		dirs:   make(map[string][]string),
	}
	if c.budget <= 0 {
		c.budget = DefaultCacheBudget
	}
	if opts.Hub != nil {
		sub := "vfscache." + b.Name()
		reg := opts.Hub.Registry
		c.hit = reg.Counter(sub, "hit")
		c.miss = reg.Counter(sub, "miss")
		c.statHit = reg.Counter(sub, "stat_hit")
		c.statMiss = reg.Counter(sub, "stat_miss")
		c.negHit = reg.Counter(sub, "stat_negative_hit")
		c.readdirHit = reg.Counter(sub, "readdir_hit")
		c.readdirMiss = reg.Counter(sub, "readdir_miss")
		c.eviction = reg.Counter(sub, "eviction")
		c.latOpenHit = reg.Histogram(sub, "open_hit_latency")
		c.latOpenMiss = reg.Histogram(sub, "open_miss_latency")
		c.latStatHit = reg.Histogram(sub, "stat_hit_latency")
		c.latStatMiss = reg.Histogram(sub, "stat_miss_latency")
	} else {
		c.hit = &telemetry.Counter{}
		c.miss = &telemetry.Counter{}
		c.statHit = &telemetry.Counter{}
		c.statMiss = &telemetry.Counter{}
		c.negHit = &telemetry.Counter{}
		c.readdirHit = &telemetry.Counter{}
		c.readdirMiss = &telemetry.Counter{}
		c.eviction = &telemetry.Counter{}
	}
	// Mount tables may sit under further decorators (faults, retry), so
	// walk the chain instead of asserting on b directly.
	if m, ok := Find[*MountFS](b); ok {
		m.onChange = func(string) { c.InvalidateAll() }
	}
	return c
}

// Cached is the caching decorator state; construct it with NewCached.
type Cached struct {
	b Backend

	mu     sync.Mutex
	budget int
	used   int

	pages map[string]*cachePage
	lru   *list.List // front = coldest
	stats map[string]cacheStat
	dirs  map[string][]string

	hit, miss, statHit, statMiss, negHit *telemetry.Counter
	readdirHit, readdirMiss, eviction    *telemetry.Counter
	latOpenHit, latOpenMiss              *telemetry.Histogram // nil-safe when no hub
	latStatHit, latStatMiss              *telemetry.Histogram
}

type cachePage struct {
	data []byte
	elem *list.Element // the page's place in the LRU
}

// cacheStat remembers either a positive Stat result or the fact that
// the path does not exist (neg). Negative entries are what make the
// JVM's classpath probing cheap: VFSClassProvider stats the same
// missing paths on every load.
type cacheStat struct {
	st  Stats
	neg bool
}

// Name reports the wrapped backend's name, so mount tables and
// instrumentation see through the decorator.
func (c *Cached) Name() string { return c.b.Name() }

// ReadOnly reports the wrapped backend's writability.
func (c *Cached) ReadOnly() bool { return c.b.ReadOnly() }

// Unwrap exposes the wrapped backend for decorator-chain discovery.
func (c *Cached) Unwrap() Backend { return c.b }

// CacheStats snapshots the cache counters.
func (c *Cached) CacheStats() CacheStats {
	c.mu.Lock()
	used := int64(c.used)
	c.mu.Unlock()
	return CacheStats{
		Hits: c.hit.Value(), Misses: c.miss.Value(),
		StatHits: c.statHit.Value(), StatMisses: c.statMiss.Value(),
		NegativeHits: c.negHit.Value(),
		ReaddirHits:  c.readdirHit.Value(), ReaddirMisses: c.readdirMiss.Value(),
		Evictions: c.eviction.Value(),
		BytesUsed: used,
	}
}

// InvalidateAll drops every cached entry.
func (c *Cached) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pages = make(map[string]*cachePage)
	c.lru.Init()
	c.used = 0
	c.stats = make(map[string]cacheStat)
	c.dirs = make(map[string][]string)
}

// ---- page cache internals (all *Locked methods hold c.mu) ----

func (c *Cached) insertPageLocked(p string, data []byte) {
	c.dropPageLocked(p)
	if len(data) > c.budget {
		return // larger than the whole cache: not worth caching
	}
	c.pages[p] = &cachePage{data: data, elem: c.lru.PushBack(p)}
	c.used += len(data)
	for c.used > c.budget {
		c.dropPageLocked(c.lru.Front().Value.(string))
		c.eviction.Inc()
	}
}

func (c *Cached) dropPageLocked(p string) {
	if pg, ok := c.pages[p]; ok {
		c.lru.Remove(pg.elem)
		c.used -= len(pg.data)
		delete(c.pages, p)
	}
}

func (c *Cached) addNameLocked(dir, base string) {
	names, ok := c.dirs[dir]
	if !ok || base == "" {
		return
	}
	for _, n := range names {
		if n == base {
			return
		}
	}
	names = append(names, base)
	sort.Strings(names)
	c.dirs[dir] = names
}

func (c *Cached) removeNameLocked(dir, base string) {
	names, ok := c.dirs[dir]
	if !ok {
		return
	}
	out := names[:0]
	for _, n := range names {
		if n != base {
			out = append(out, n)
		}
	}
	c.dirs[dir] = out
}

// invalidateSubtreeLocked forgets every cached entry at or under p
// (pages, stats — including negative entries — and readdir listings).
func (c *Cached) invalidateSubtreeLocked(p string) {
	for q := range c.pages {
		if vkernel.Under(q, p) {
			c.dropPageLocked(q)
		}
	}
	for q := range c.stats {
		if vkernel.Under(q, p) {
			delete(c.stats, q)
		}
	}
	for q := range c.dirs {
		if vkernel.Under(q, p) {
			delete(c.dirs, q)
		}
	}
}

// now reads the clock for the latency histograms, and only when they
// are attached.
func (c *Cached) now() time.Time {
	if c.latStatHit == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stat serves from the stat cache (including negative entries) and
// populates it on miss. Only ENOENT is cached negatively; transient
// errors are not remembered.
func (c *Cached) Stat(p string, cb func(Stats, error)) {
	start := c.now()
	c.mu.Lock()
	if e, ok := c.stats[p]; ok {
		c.mu.Unlock()
		c.statHit.Inc()
		if e.neg {
			c.negHit.Inc()
			c.latStatHit.ObserveSince(start)
			cb(Stats{}, Err(ENOENT, "stat", p))
			return
		}
		c.latStatHit.ObserveSince(start)
		cb(e.st, nil)
		return
	}
	c.mu.Unlock()
	c.statMiss.Inc()
	c.b.Stat(p, func(st Stats, err error) {
		c.mu.Lock()
		switch {
		case err == nil:
			c.stats[p] = cacheStat{st: st}
		case IsErrno(err, ENOENT):
			c.stats[p] = cacheStat{neg: true}
		}
		c.mu.Unlock()
		c.latStatMiss.ObserveSince(start)
		cb(st, err)
	})
}

// Open serves whole files from the page cache; a cached negative stat
// short-circuits to ENOENT without a backend round trip. Pages hold
// the backend's read-only slices (or the cache's own copy of a Sync),
// and a hit delivers the page itself, so Open copies nothing.
func (c *Cached) Open(p string, cb func([]byte, error)) {
	start := c.now()
	c.mu.Lock()
	if pg, ok := c.pages[p]; ok {
		c.lru.MoveToBack(pg.elem)
		data := pg.data
		c.mu.Unlock()
		c.hit.Inc()
		c.latOpenHit.ObserveSince(start)
		cb(data, nil)
		return
	}
	if e, ok := c.stats[p]; ok && e.neg {
		c.mu.Unlock()
		c.hit.Inc()
		c.negHit.Inc()
		c.latOpenHit.ObserveSince(start)
		cb(nil, Err(ENOENT, "open", p))
		return
	}
	c.mu.Unlock()
	c.miss.Inc()
	c.b.Open(p, func(data []byte, err error) {
		if err == nil {
			c.mu.Lock()
			// The page shares the backend's read-only slice.
			c.insertPageLocked(p, data)
			c.mu.Unlock()
		}
		c.latOpenMiss.ObserveSince(start)
		cb(data, err)
	})
}

// Sync writes through and, once the backend has accepted the write,
// caches a copy of the new contents (the caller keeps data).
func (c *Cached) Sync(p string, data []byte, cb func(error)) {
	cp := append([]byte(nil), data...)
	c.b.Sync(p, data, func(err error) {
		if err == nil {
			c.mu.Lock()
			c.insertPageLocked(p, cp)
			// Don't fabricate a stat: a stat entry holds what the
			// backend answered. Refetch on demand.
			delete(c.stats, p)
			dir, base := vkernel.SplitDir(p)
			c.addNameLocked(dir, base)
			c.mu.Unlock()
		}
		cb(err)
	})
}

// Unlink removes a file, short-circuiting on a cached negative stat,
// and remembers the removal as a negative entry.
func (c *Cached) Unlink(p string, cb func(error)) {
	c.mu.Lock()
	// Read-only backends answer mutations with EROFS even for missing
	// paths, so the negative-stat shortcut must not preempt them.
	if e, ok := c.stats[p]; ok && e.neg && !c.b.ReadOnly() {
		c.mu.Unlock()
		c.negHit.Inc()
		cb(Err(ENOENT, "unlink", p))
		return
	}
	c.mu.Unlock()
	c.b.Unlink(p, func(err error) {
		if err == nil {
			c.mu.Lock()
			c.dropPageLocked(p)
			c.stats[p] = cacheStat{neg: true}
			dir, base := vkernel.SplitDir(p)
			c.removeNameLocked(dir, base)
			c.mu.Unlock()
		}
		cb(err)
	})
}

// Rmdir removes a directory and caches the resulting absence.
func (c *Cached) Rmdir(p string, cb func(error)) {
	c.mu.Lock()
	if e, ok := c.stats[p]; ok && e.neg && !c.b.ReadOnly() {
		c.mu.Unlock()
		c.negHit.Inc()
		cb(Err(ENOENT, "rmdir", p))
		return
	}
	c.mu.Unlock()
	c.b.Rmdir(p, func(err error) {
		if err == nil {
			c.mu.Lock()
			delete(c.dirs, p)
			c.stats[p] = cacheStat{neg: true}
			dir, base := vkernel.SplitDir(p)
			c.removeNameLocked(dir, base)
			c.mu.Unlock()
		}
		cb(err)
	})
}

// Mkdir creates a directory, clearing any negative entry and updating
// the parent's cached listing.
func (c *Cached) Mkdir(p string, cb func(error)) {
	c.b.Mkdir(p, func(err error) {
		if err == nil {
			c.mu.Lock()
			delete(c.stats, p)
			dir, base := vkernel.SplitDir(p)
			c.addNameLocked(dir, base)
			c.mu.Unlock()
		}
		cb(err)
	})
}

// Readdir serves cached listings and caches backend listings on miss.
// A hit hands the caller its own copy: the slice belongs to the caller
// (see Backend.Readdir), and the cache edits its listing in place.
func (c *Cached) Readdir(p string, cb func([]string, error)) {
	c.mu.Lock()
	if names, ok := c.dirs[p]; ok {
		out := slices.Clone(names)
		c.mu.Unlock()
		c.readdirHit.Inc()
		cb(out, nil)
		return
	}
	if e, ok := c.stats[p]; ok && e.neg {
		c.mu.Unlock()
		c.readdirHit.Inc()
		c.negHit.Inc()
		cb(nil, Err(ENOENT, "readdir", p))
		return
	}
	c.mu.Unlock()
	c.readdirMiss.Inc()
	c.b.Readdir(p, func(names []string, err error) {
		if err != nil {
			cb(names, err)
			return
		}
		c.mu.Lock()
		c.dirs[p] = slices.Clone(names)
		c.mu.Unlock()
		cb(names, nil)
	})
}

// Rename moves a node, then invalidates both affected subtrees (a
// directory rename moves every descendant, so exact-path invalidation
// is not enough).
func (c *Cached) Rename(oldPath, newPath string, cb func(error)) {
	c.mu.Lock()
	if e, ok := c.stats[oldPath]; ok && e.neg && !c.b.ReadOnly() {
		c.mu.Unlock()
		c.negHit.Inc()
		cb(Err(ENOENT, "rename", oldPath))
		return
	}
	c.mu.Unlock()
	c.b.Rename(oldPath, newPath, func(err error) {
		if err == nil {
			c.mu.Lock()
			c.invalidateSubtreeLocked(oldPath)
			if oldPath != newPath {
				c.invalidateSubtreeLocked(newPath)
				c.stats[oldPath] = cacheStat{neg: true}
				od, ob := vkernel.SplitDir(oldPath)
				nd, nb := vkernel.SplitDir(newPath)
				c.removeNameLocked(od, ob)
				c.addNameLocked(nd, nb)
			}
			c.mu.Unlock()
		}
		cb(err)
	})
}
