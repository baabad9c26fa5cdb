package seam

// Used is called from package caller, so its allow excuses nothing.
//
//mcsdlint:allow deadexport -- stale: caller uses this now // want "unused //mcsdlint:allow deadexport"
func Used() {}

// Excused has no caller; its allow is consumed.
//
//mcsdlint:allow deadexport -- fixture: a seam another package's tests need
func Excused() {}
