package proto

// A map[K]V keyed by object would hold a second copy of each fact; this
// comment names one and is no finding.
type table []int32

var byObj map[int32]int32 // want `the protocol core keeps no maps: map type in repro/internal/proto`

// Node and Space are the one way in for an observer.
type (
	Node  struct{ subs []any }
	Space struct{ Nodes []*Node }
)

func (n *Node) Subscribe(sub any) { n.subs = append(n.subs, sub) }

func (sp *Space) Subscribe(sub any) {
	for _, n := range sp.Nodes {
		n.Subscribe(sub)
	}
}
