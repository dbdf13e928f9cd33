// Package sim stands in for the virtual-time kernel.
package sim

import "iter"

// Proc is the one coroutine a sim proc is.
type Proc struct{ resume func() (struct{}, bool) }

func (p *Proc) start(body iter.Seq[struct{}]) { p.resume, _ = iter.Pull(body) }
