package gos

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Thread is one application thread running on a simulated cluster node.
// The protocol it speaks is the embedded proto.Driver, shared with the
// live engine; this type is the driver's proto.Host under virtual time:
// the blocking rendezvous on a sim queue, retry timers as events that
// post to it, and the modeled software costs. The cooperative scheduler
// runs one process at a time, so the host's lock is a no-op.
type Thread struct {
	proto.Driver
	c     *Cluster
	proc  *sim.Proc
	reply *sim.Queue

	pending sim.Time // accumulated local compute, materialized lazily
}

// retry is the timer token behind proto.Host.RetryAfter.
type retry struct {
	kind proto.TokenKind
	obj  memory.ObjectID
}

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.proc.Now() }

// Compute models d of local computation. It is lazily accumulated and
// materialized at the next protocol action, so tight loops stay cheap.
func (t *Thread) Compute(d sim.Time) {
	if d > 0 {
		t.pending += d
	}
}

// SyncPoint materializes accumulated compute time before an interaction,
// so message timestamps reflect the work done before them.
func (t *Thread) SyncPoint() {
	if t.pending > 0 {
		d := t.pending
		t.pending = 0
		t.proc.Sleep(d)
	}
}

// Lock implements proto.Host.
func (t *Thread) Lock() {}

// Unlock implements proto.Host.
func (t *Thread) Unlock() {}

// The thread-side software costs: one trapped access check, the
// sender-side overhead of one message, and the delay of a retry timer,
// first of all the requester's back-off after an obsolete-home miss under
// the broadcast locator (§3.2: "waiting for sometime before repeating the
// fault-in again").
const (
	faultCost  = 300 * sim.Nanosecond
	sendCost   = 1 * sim.Microsecond
	retryDelay = 100 * sim.Microsecond
)

// ChargeFault implements proto.Host: one trapped software access check.
func (t *Thread) ChargeFault() { t.Compute(faultCost) }

// ChargeSend implements proto.Host: the sender-side overhead, spent
// (with all compute before it) ahead of the fault-in's first message.
func (t *Thread) ChargeSend() {
	t.Compute(sendCost)
	t.SyncPoint()
}

// Recv implements proto.Host on the thread's reply queue.
func (t *Thread) Recv(tok *proto.Token) {
	switch raw := t.reply.Recv(t.proc).(type) {
	case *wire.Msg:
		tok.Kind, tok.Msg = proto.TokMessage, *raw
		t.c.net.FreeMsg(raw)
	case retry:
		tok.Kind, tok.Obj = raw.kind, raw.obj
	default:
		panic(fmt.Sprintf("gos: thread %s: stray token %T", t.Name(), raw))
	}
}

// RetryAfter implements proto.Host: the token is posted to the reply
// queue retryDelay from now, as a delivery rather than a callback.
func (t *Thread) RetryAfter(kind proto.TokenKind, obj memory.ObjectID) {
	t.c.env.DeliverAt(retryDelay, t.reply, retry{kind, obj}, nil)
}

// compile-time check: the sim thread implements the shared interface
// (NewDriver's Host parameter checks the other one).
var _ proto.Thread = (*Thread)(nil)
