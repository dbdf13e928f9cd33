//go:build !unix

package tcp

// canWriteNow is false where a descriptor cannot be written without
// waiting through package syscall alone: every frame leaves through the
// writer goroutine.
const canWriteNow = false

func writeNow(uintptr, []byte) int { return 0 }
