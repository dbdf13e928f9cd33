// Package proto stands in for the protocol core.
package proto

import (
	_ "repro/internal/telemetry" // want `proto knows no consumer: import of repro/internal/telemetry`
)

// Shared declares the selection once below the facade.
type Shared struct {
	PathCompress bool
}
