package jobs

import (
	"container/list"

	"sprint/internal/core"
)

// resultCache is a small LRU of finished results, keyed by content address.
// Because results are bit-identical for identical inputs, a hit is exactly
// the answer the submission would have computed; the cached Result carries
// the NProcs and Profile of the run that produced it.
type resultCache struct {
	max     int
	order   *list.List // front = most recent; values are cache entries
	entries map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *core.Result
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached result for key and marks it most recently used.
func (c *resultCache) get(key string) (*core.Result, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores res under key, evicting the least recently used entry beyond
// capacity.
func (c *resultCache) put(key string, res *core.Result) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// len reports the number of cached results.
func (c *resultCache) len() int { return c.order.Len() }
