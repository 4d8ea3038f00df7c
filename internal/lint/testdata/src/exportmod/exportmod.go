// Package exportmod is a leclint fixture standing in for a module's root
// package: it names some of its library's exports and aliases one type,
// whose exported methods are root API.
package exportmod

import "exportmod/internal/lib"

// Handle aliases a library type: every exported method of lib.Handle is
// public API, named or not.
type Handle = lib.Handle

// Open is root API; it names lib.Used.
func Open() *Handle {
	lib.Used()
	return &Handle{}
}
