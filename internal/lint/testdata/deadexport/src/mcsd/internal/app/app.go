// Package app imports store; nothing imports app, so deadexport treats it
// as test support and skips its own exports.
package app

import "mcsd/internal/store"

// Run uses store's exports.
func Run() int { return store.Open().Count() + store.Grow() }

// Helper is unused, but app is skipped: no non-test file imports it.
func Helper() {}
