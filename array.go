package dsm

import (
	"fmt"
	"math"
)

// Placement decides the initial home of each object of an array.
type Placement func(index, nodes int) NodeID

// RoundRobin spreads homes across nodes: the paper's policy for large
// arrays ("we distribute the homes of large objects, such as array
// objects, among the nodes in a round-robin fashion", §5).
func RoundRobin(index, nodes int) NodeID { return NodeID(index % nodes) }

// Fixed homes every object at one node (the creation-node default for
// scalar objects).
func Fixed(node NodeID) Placement {
	return func(int, int) NodeID { return node }
}

// Blocked assigns contiguous chunks of objects to consecutive nodes, the
// owner-computes layout (useful as an "optimal initial placement"
// baseline in ablations).
func Blocked(total int) Placement {
	return func(index, nodes int) NodeID {
		per := (total + nodes - 1) / nodes
		return NodeID(index / per)
	}
}

// Array is a 2-D shared matrix stored as one object per row — exactly how
// "a 2-D matrix is implemented as an array object whose elements are also
// array objects" in the paper's Java applications (§5.1).
type Array struct {
	c   *Cluster
	ids []ObjectID
}

// NewArray declares rows×cols shared matrix with the given row placement.
func (c *Cluster) NewArray(name string, rows, cols int, place Placement) *Array {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("dsm: array %q with shape %dx%d", name, rows, cols))
	}
	a := &Array{c: c}
	for i := 0; i < rows; i++ {
		home := place(i, c.Nodes())
		a.ids = append(a.ids, c.NewObject(fmt.Sprintf("%s[%d]", name, i), cols, home))
	}
	return a
}

// Object returns the object id backing row i.
func (a *Array) Object(i int) ObjectID { return a.ids[i] }

// Int64 reads element (i,j) as an int64.
func (a *Array) Int64(t Thread, i, j int) int64 {
	return int64(t.Read(a.ids[i], j))
}

// SetInt64 writes element (i,j) as an int64.
func (a *Array) SetInt64(t Thread, i, j int, v int64) {
	t.Write(a.ids[i], j, uint64(v))
}

// Float64 reads element (i,j) as a float64.
func (a *Array) Float64(t Thread, i, j int) float64 {
	return math.Float64frombits(t.Read(a.ids[i], j))
}

// SetFloat64 writes element (i,j) as a float64.
func (a *Array) SetFloat64(t Thread, i, j int, v float64) {
	t.Write(a.ids[i], j, math.Float64bits(v))
}

// RowView faults in row i and returns it for bulk read-only access within
// the current synchronization interval.
func (a *Array) RowView(t Thread, i int) []uint64 { return t.ReadView(a.ids[i]) }

// RowWriteView faults row i for writing and returns it for bulk mutation
// within the current interval.
func (a *Array) RowWriteView(t Thread, i int) []uint64 { return t.WriteView(a.ids[i]) }

// InitInt64 seeds element (i,j) before the run at no simulated cost.
func (a *Array) InitInt64(i, j int, v int64) {
	a.c.Init(a.ids[i], func(w []uint64) { w[j] = uint64(v) })
}

// InitFloat64 seeds element (i,j) before the run at no simulated cost.
func (a *Array) InitFloat64(i, j int, v float64) {
	a.c.Init(a.ids[i], func(w []uint64) { w[j] = math.Float64bits(v) })
}

// InitRow seeds a whole row before the run.
func (a *Array) InitRow(i int, fn func(row []uint64)) { a.c.Init(a.ids[i], fn) }

// DataInt64 returns row i of the authoritative copy as int64s (post-run).
func (a *Array) DataInt64(i int) []int64 {
	raw := a.c.Data(a.ids[i])
	out := make([]int64, len(raw))
	for k, w := range raw {
		out[k] = int64(w)
	}
	return out
}

// DataFloat64 returns row i of the authoritative copy as float64s.
func (a *Array) DataFloat64(i int) []float64 {
	raw := a.c.Data(a.ids[i])
	out := make([]float64, len(raw))
	for k, w := range raw {
		out[k] = math.Float64frombits(w)
	}
	return out
}
