// Package caller imports seam so that deadexport checks seam.
package caller

import "mcsd/internal/seam"

// Call uses seam.Used.
func Call() { seam.Used() }
