// Package trace stands in for the classifier.
package trace

import (
	_ "repro/internal/core" // want `trace only classifies: import of repro/internal/core`
)

// Replay is a second model of the protocol.
func Replay() {} // want `one model of the protocol: func Replay declared`

// Trace is a second event log.
type Trace struct{} // want `one kind of event log: type Trace declared`
