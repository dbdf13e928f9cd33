package proto

// Host is how a thread waits.
type Host interface {
	Recv(tok *int)
}

// Driver is the thread-side protocol.
type Driver struct {
	h   Host
	tok int
}

// await is the one wait.
func (d *Driver) await() {
	d.h.Recv(&d.tok)
}

// recvMsg is a second wait, taken as a method value.
func (d *Driver) recvMsg() { // want `one retry path: method Driver.recvMsg declared`
	recv := d.h.Recv // want `the driver waits in one place: use of proto.Host.Recv 2 times in internal/proto/driver.go, want 1`
	recv(&d.tok)
}
