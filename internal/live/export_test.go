package live

import _ "unsafe" // go:linkname

// sharedFrameOps reports how many calls have reached the transport's
// process-wide frame list, gets and puts, counted under its mutex. The
// count is the transport's own; this hook reads it without an exported
// function that only tests would call.
//
//go:linkname sharedFrameOps repro/internal/live/transport.frameListOps
func sharedFrameOps() (gets, puts int64)
