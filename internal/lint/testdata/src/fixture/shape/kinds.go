package dsm

// subscriber stands in for an observer, which declares the kinds it wants.
type subscriber interface{ Kinds() uint64 }

// keepsCopy decides what the run keeps from what an observer asks for.
func keepsCopy(o subscriber) bool {
	return o.Kinds()&1 != 0 // want `the facade reads no observer's kinds: use of method Kinds in repro`
}
