// Package obshttp stands in for the debug listener, its routes moved out
// of the file the one-debug-mux row counts on.
package obshttp // want `one debug mux: internal/obshttp/obshttp.go is gone; the row counts on it`
