package lib

import _ "unsafe" // for go:linkname

// nanotime has no body: it is the runtime's clock, which a binary holds as
// runtime.nanotime, and Now reaches it.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// Now is reached from the command.
func Now() int64 { return nanotime() }

// hidden is linked by no binary.
func hidden() int { return 9 } // want "reachable: lib.hidden is linked by no binary"

// alias has no body: it names hidden, which no binary links, so neither
// does it, though the package's test calls it.
//
//go:linkname alias reach/lib.hidden
func alias() int // want "reachable: lib.alias is linked by no binary"
