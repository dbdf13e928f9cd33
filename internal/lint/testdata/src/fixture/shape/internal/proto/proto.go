// Package proto stands in for the protocol core.
package proto

import (
	_ "repro/internal/telemetry" // want `proto knows no consumer: import of repro/internal/telemetry`
)

// Shared declares the selection once below the facade.
type Shared struct {
	PathCompress bool
}

// Cluster is a second contract over the space, with one consumer.
type Cluster interface { // want `the facade calls the engine directly: Cluster declared in repro/internal/proto`
	Subscribe(sub any) // want `one way to subscribe: method Subscribe declared outside internal/proto/observe.go`
}
