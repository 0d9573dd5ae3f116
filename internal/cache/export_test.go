package cache

// StartClockAt sets c's LRU clock, so a test can start a cache just
// below the stamp at which it renumbers.
func (c *Cache) StartClockAt(clock uint32) { c.clock = clock }
