package frame

import "repro/internal/live/transport"

// touch stands in for any non-transferring consumer of a buffer.
func touch(b []byte) { _ = b }

// leakOnError loses the frame on the early-return path — the shape of
// the tcp reader bug.
func leakOnError(fill func([]byte) error) error {
	buf := transport.GetFrame()
	if err := fill(buf); err != nil {
		return err // want `frame buf still owned at return`
	}
	transport.PutFrame(buf)
	return nil
}

// deferred releases on every path via defer: clean.
func deferred(fill func([]byte) error) error {
	buf := transport.GetFrame()
	defer transport.PutFrame(buf)
	if err := fill(buf); err != nil {
		return err
	}
	return nil
}

// condPut is the canonical enqueue-or-recycle idiom: Put returning
// false hands the frame back, so the branch may release it again. Clean.
func condPut(q *transport.Queue[[]byte]) {
	buf := transport.GetFrame()
	if !q.Put(buf) {
		transport.PutFrame(buf)
	}
}

// useAfterPut touches the frame after the queue owns it.
func useAfterPut(q *transport.Queue[[]byte]) {
	buf := transport.GetFrame()
	if !q.Put(buf) {
		transport.PutFrame(buf)
	}
	touch(buf) // want `frame buf used after ownership handoff`
}

// doubleFree recycles the same frame twice.
func doubleFree() {
	buf := transport.GetFrame()
	transport.PutFrame(buf)
	transport.PutFrame(buf) // want `frame buf released or sent twice`
}

// dropped discards the pooled buffer outright.
func dropped() {
	transport.GetFrame() // want `result of transport.GetFrame dropped`
}

// handoff transfers ownership to the caller: clean.
func handoff() []byte {
	buf := transport.GetFrame()
	return buf
}

// clobber overwrites the variable while it still owns a frame.
func clobber() {
	buf := transport.GetFrame()
	buf = transport.GetFrame() // want `frame buf overwritten while still owned`
	transport.PutFrame(buf)
}

// pinned holds its frame past the return on purpose; the justified
// suppression below keeps the leak report quiet.
func pinned() {
	buf := transport.GetFrame()
	touch(buf)
	//dsm:nolint framelint: fixture: frame intentionally pinned for the process lifetime
}

// readByte reads one byte of the frame, then recycles it: an element
// read copies the byte out and aliases nothing. Clean.
func readByte() bool {
	buf := transport.GetFrame()
	mine := buf[0] == 1
	transport.PutFrame(buf)
	return mine
}

// addrAlias takes an element's address: the pointer aliases the frame,
// whose ownership moves with it, so the later release is a second one.
func addrAlias() *byte {
	buf := transport.GetFrame()
	p := &buf[0]
	transport.PutFrame(buf) // want `frame buf released or sent twice`
	return p
}

// ownLeak draws from a node's own list and loses the frame on the error
// path: the list's Get is a frame source like GetFrame.
func ownLeak(own *transport.Frames, fill func([]byte) error) error {
	buf := own.Get()
	if err := fill(buf); err != nil {
		return err // want `frame buf still owned at return`
	}
	own.Put(buf)
	return nil
}

// ownUseAfterPut reads the frame after the list took it back, where the
// owner's next Get hands it out again.
func ownUseAfterPut(own *transport.Frames) {
	buf := append(own.Get(), 1)
	own.Put(buf)
	touch(buf) // want `frame buf used after ownership handoff`
}

// ownRoundTrip encodes into the list's frame and sends it on: clean.
func ownRoundTrip(own *transport.Frames, q *transport.Queue[[]byte]) {
	buf := append(own.Get(), 1, 2)
	if !q.Put(buf) {
		own.Put(buf)
	}
}

// sizedLeak draws a frame with room for n bytes and loses it on the error
// path: GetFrameFor is a frame source like GetFrame.
func sizedLeak(n int, fill func([]byte) error) error {
	buf := transport.GetFrameFor(n)
	if err := fill(buf); err != nil {
		return err // want `frame buf still owned at return`
	}
	transport.PutFrame(buf)
	return nil
}

// ownSizedLeak does the same with a node's own list's GetFor.
func ownSizedLeak(own *transport.Frames, n int, fill func([]byte) error) error {
	buf := own.GetFor(n)
	if err := fill(buf); err != nil {
		return err // want `frame buf still owned at return`
	}
	own.Put(buf)
	return nil
}
