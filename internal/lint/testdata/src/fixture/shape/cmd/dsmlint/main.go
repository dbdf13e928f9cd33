// Command dsmlint stands in for a binary that registers a selection flag
// a second time, on a flag set of its own.
package main

import "flag"

func main() {
	flag.NewFlagSet("x", 0).String("locator", "fwdptr", "home locator") // want `a selection flag is registered once: flag -locator registered outside internal/apps/apps.go`
}
