package frame

import "repro/internal/live/transport"

// backend stands in for a transport.Pusher and its reader.
type backend struct{ self *transport.Queue[[]byte] }

func (backend) SetSink(id int, sink func(frame []byte) error) {}

func (backend) deliver(frame []byte) error { return nil }

// parse stands in for (*wire.Msg).Decode: it reads the frame, nothing more.
func parse(b []byte) error { _ = b; return nil }

// readerPushes hands the buffer to the node through deliver: clean, the
// sink owns it now.
func readerPushes(b backend) error {
	buf := transport.GetFrame()
	return b.deliver(buf)
}

// readerKeepsUsing touches the buffer after the node took it.
func readerKeepsUsing(b backend) {
	buf := transport.GetFrame()
	b.deliver(buf)
	touch(buf) // want `frame buf used after ownership handoff`
}

// leakySink forgets the frame it was handed on its error path.
func leakySink(frame []byte) error {
	if err := parse(frame); err != nil {
		return err // want `frame frame still owned at return`
	}
	transport.PutFrame(frame)
	return nil
}

// requeueSink recycles the frame or sends the original on, the shape of
// the live engine's sink: clean.
func (b backend) requeueSink(frame []byte) error {
	err := parse(frame)
	if err == nil && len(frame) == 0 {
		if !b.self.Put(frame) {
			transport.PutFrame(frame)
		}
		return nil
	}
	transport.PutFrame(frame)
	return err
}

// notASink has a sink's signature but is never installed: its parameter
// is the caller's business.
func notASink(frame []byte) error { return parse(frame) }

func install(b backend) {
	b.SetSink(0, leakySink)
	b.SetSink(1, b.requeueSink)
	b.SetSink(2, func(frame []byte) error {
		transport.PutFrame(frame)
		transport.PutFrame(frame) // want `frame frame released or sent twice`
		return nil
	})
	b.SetSink(3, func(frame []byte) error {
		err := parse(frame)
		return err // want `frame frame still owned at return`
	})
	_ = notASink
}
