// Package pairstore mirrors the persistence surface of the real pair
// store for the obserrcheck fixture.
package pairstore

// Cache mirrors the pair store's persistence API.
type Cache struct{}

// Save mirrors disk persistence's error result.
func (c *Cache) Save() error { return nil }

// Load mirrors cache warm-up's error result.
func (c *Cache) Load() error { return nil }
