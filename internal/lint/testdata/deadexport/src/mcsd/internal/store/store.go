package store

import "fmt"

// Open is referenced from package app: a use in another package counts.
func Open() *Handle { return &Handle{n: limit} }

// Handle is referenced by Open's signature and from app.
type Handle struct{ n int }

// Count is called from app.
func (h *Handle) Count() int { return h.n }

// String is reached by dynamic dispatch (fmt.Stringer), so it is exempt.
func (h *Handle) String() string { return fmt.Sprint(h.n) }

// Drain has no caller anywhere.
func (h *Handle) Drain() {} // want "exported Drain has no non-test reference"

// Orphan has no caller anywhere.
func Orphan() {} // want "exported Orphan has no non-test reference"

// Spare is never named outside its own declaration.
type Spare struct{} // want "exported Spare has no non-test reference"

// Limit and Default are never read.
const Limit = 3 // want "exported Limit has no non-test reference"

var Default = 1 // want "exported Default has no non-test reference"

const limit = 4

// OnlyTested is referenced from store_test.go alone, which does not count.
func OnlyTested() {} // want "exported OnlyTested has no non-test reference"

// Depth calls only itself: recursion is not a use.
func Depth(n int) int { // want "exported Depth has no non-test reference"
	if n == 0 {
		return 0
	}
	return Depth(n-1) + 1
}

// Size is used inside its own package by Grow, which app calls.
func Size() int { return 2 }

// Grow is called from app.
func Grow() int { return Size() * 2 }

// Reference stays for the tests that compare against it.
//
//mcsdlint:allow deadexport -- fixture: a reference implementation tests compare against
func Reference() {}
