// Package other names the library only from its test.
package other

// nothing gives the package a non-test file.
const nothing = 0
