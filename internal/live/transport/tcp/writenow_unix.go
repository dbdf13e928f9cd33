//go:build unix

package tcp

import "syscall"

// canWriteNow: this platform's descriptors take a write that returns
// instead of waiting.
const canWriteNow = true

// writeNow writes b to the non-blocking socket fd once and reports how
// many bytes the kernel took: 0 when its buffer is full or the link is
// broken — the writer goroutine's blocking write finds out which.
func writeNow(fd uintptr, b []byte) int {
	n, err := syscall.Write(int(fd), b)
	if err != nil {
		return 0
	}
	return n
}
