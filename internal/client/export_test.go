package client

import "time"

// ExpireCachedMetadata stamps h's cached metadata with DateExpires at,
// so external tests can age the cache without waiting.
func ExpireCachedMetadata(h *HTTPConn, at time.Time) {
	h.mu.Lock()
	h.cached.DateExpires = at
	h.mu.Unlock()
}
