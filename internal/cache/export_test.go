package cache

// Index exposes the set and tag of addr to the external tests.
func (c *Cache) Index(addr uint64) (set int, tag uint64) { return c.index(addr) }
