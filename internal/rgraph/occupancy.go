package rgraph

// Signal identifies a value travelling through the resource graph. The mapper
// uses the producing DFG node's ID, so all routes fanning out from one
// producer share resources for free — a standard routing-resource-graph rule
// without which dense DFGs (syr2k and friends) become unmappable.
type Signal int32

// opSignal marks an FU node occupied by a placed operation rather than a
// routed value. Each placed op gets a distinct negative signal so that a
// route may *end* at its consumer but never pass through another op.
func opSignal(dfgNode int) Signal { return Signal(-1 - dfgNode) }

// Occupancy tracks which signals occupy each resource node. It supports the
// capacity rule (at most Cap distinct signals per node), fan-out sharing
// (re-entering a node already carrying the same signal is free), and
// reference-counted release so overlapping routes unwind correctly.
//
// The layout is dense: node n owns the Cap slots starting at cell[n].base of
// one flat (signal, refcount) array, and its first cell[n].n slots hold its
// distinct signals. A capacity question is a count compare before any scan,
// and the router's neighbour checks touch two small arrays instead of one
// slice header per node.
//
// For speculative mutation (the annealer's movement loop) it offers an undo
// journal: between BeginJournal and RollbackJournal every Use/Release —
// including those issued through PlaceOp/RemoveOp/Commit/Uncommit — is
// recorded, and rollback replays the inverse log in reverse, touching only
// the entries the movement touched. This replaces the per-movement deep
// Clone: rollback cost is O(ops in the movement), not O(resource nodes).
// Clone is retained as the reference snapshot path for differential tests
// and benchmarks.
type Occupancy struct {
	cell  []occCell // per node: slot base, distinct-signal count, capacity
	slots []sigRef  // every node's slots, back to back

	journaling bool
	journal    []journalOp
}

// occCell locates one node's slots; n of its cap slots are in use.
type occCell struct {
	base, n, cap int32
}

type sigRef struct {
	sig Signal
	ref int32
}

// journalOp records one Use (release=false) or Release (release=true).
type journalOp struct {
	node    int32
	sig     Signal
	release bool
}

// NewOccupancy creates an empty occupancy table for g.
func NewOccupancy(g *Graph) *Occupancy {
	cell := make([]occCell, g.NumNodes())
	total := int32(0)
	for i := range cell {
		c := int32(g.Nodes[i].Cap)
		cell[i] = occCell{base: total, cap: c}
		total += c
	}
	return &Occupancy{cell: cell, slots: make([]sigRef, total)}
}

// Clone returns a deep copy.
func (o *Occupancy) Clone() *Occupancy {
	return &Occupancy{
		cell:  append([]occCell(nil), o.cell...),
		slots: append([]sigRef(nil), o.slots...),
	}
}

// Reset clears all occupancy.
func (o *Occupancy) Reset() {
	for i := range o.cell {
		o.cell[i].n = 0
	}
}

// held returns node n's occupied slots.
func (o *Occupancy) held(n int) []sigRef {
	c := o.cell[n]
	return o.slots[c.base : c.base+c.n]
}

// find returns the slot index of sig at node n, or -1.
func (o *Occupancy) find(n int, sig Signal) int32 {
	c := o.cell[n]
	for i := c.base; i < c.base+c.n; i++ {
		if o.slots[i].sig == sig {
			return i
		}
	}
	return -1
}

// CanEnter reports whether signal sig may use node n: either n has spare
// capacity, or n already carries sig.
func (o *Occupancy) CanEnter(n int, sig Signal) bool {
	c := o.cell[n]
	return c.n < c.cap || o.find(n, sig) >= 0
}

// enterCost classifies entering node n with sig for the router: 0 when n
// already carries sig (free), 1 when n has a spare slot (fresh), and -1 when
// n is full of other signals (blocked). One scan answers what CanEnter and
// Carries would ask separately.
func (o *Occupancy) enterCost(n int, sig Signal) int32 {
	switch c := o.cell[n]; {
	case o.find(n, sig) >= 0:
		return 0
	case c.n < c.cap:
		return 1
	}
	return -1
}

// Carries reports whether node n currently carries signal sig.
func (o *Occupancy) Carries(n int, sig Signal) bool { return o.find(n, sig) >= 0 }

// Use records one use of sig at node n. It panics if the capacity rule would
// be violated; callers must check CanEnter first.
func (o *Occupancy) Use(n int, sig Signal) {
	if o.journaling {
		o.journal = append(o.journal, journalOp{node: int32(n), sig: sig})
	}
	o.use(n, sig)
}

func (o *Occupancy) use(n int, sig Signal) {
	if i := o.find(n, sig); i >= 0 {
		o.slots[i].ref++
		return
	}
	c := &o.cell[n]
	if c.n >= c.cap {
		panic("rgraph: capacity violated")
	}
	o.slots[c.base+c.n] = sigRef{sig: sig, ref: 1}
	c.n++
}

// Release undoes one Use of sig at node n.
func (o *Occupancy) Release(n int, sig Signal) {
	if o.journaling {
		o.journal = append(o.journal, journalOp{node: int32(n), sig: sig, release: true})
	}
	o.release(n, sig)
}

func (o *Occupancy) release(n int, sig Signal) {
	i := o.find(n, sig)
	if i < 0 {
		panic("rgraph: release of absent signal")
	}
	if o.slots[i].ref--; o.slots[i].ref == 0 {
		c := &o.cell[n]
		c.n--
		o.slots[i] = o.slots[c.base+c.n]
	}
}

// BeginJournal arms the undo journal: every subsequent Use/Release is
// recorded until CommitJournal or RollbackJournal. Nested journals are not
// supported; beginning again simply truncates the log.
func (o *Occupancy) BeginJournal() {
	o.journaling = true
	o.journal = o.journal[:0]
}

// CommitJournal accepts the mutations made since BeginJournal and discards
// the log.
func (o *Occupancy) CommitJournal() {
	o.journaling = false
	o.journal = o.journal[:0]
}

// RollbackJournal undoes every Use/Release recorded since BeginJournal by
// replaying the inverse log in reverse order. The restored table is
// semantically identical to the pre-journal state (same signals, same
// refcounts per node); only the internal ordering of a node's entries may
// differ, which no query observes.
func (o *Occupancy) RollbackJournal() {
	o.journaling = false
	for i := len(o.journal) - 1; i >= 0; i-- {
		op := o.journal[i]
		if op.release {
			o.use(int(op.node), op.sig)
		} else {
			o.release(int(op.node), op.sig)
		}
	}
	o.journal = o.journal[:0]
}

// SigRef is an exported (signal, refcount) pair for inspection by tests and
// debugging tools.
type SigRef struct {
	Sig Signal
	Ref int
}

// Entries returns node n's occupants in canonical (signal-sorted) order.
// The internal order is arbitrary — Release swap-removes and rollback
// re-appends — so comparisons must go through this canonical view.
func (o *Occupancy) Entries(n int) []SigRef {
	held := o.held(n)
	if len(held) == 0 {
		return nil
	}
	out := make([]SigRef, len(held))
	for i, r := range held {
		out[i] = SigRef{Sig: r.sig, Ref: int(r.ref)}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Sig < out[j-1].Sig; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Equivalent reports whether o and p describe the same occupancy (same
// signals with same refcounts at every node), ignoring internal entry order.
func (o *Occupancy) Equivalent(p *Occupancy) bool {
	if len(o.cell) != len(p.cell) {
		return false
	}
	for n := range o.cell {
		a, b := o.Entries(n), p.Entries(n)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// PlaceOp occupies FU node n with the operation of DFG node v. It reports
// false when the node is already occupied by a different signal.
func (o *Occupancy) PlaceOp(n, v int) bool {
	sig := opSignal(v)
	if !o.CanEnter(n, sig) {
		return false
	}
	o.Use(n, sig)
	return true
}

// RemoveOp releases the operation of DFG node v from FU node n.
func (o *Occupancy) RemoveOp(n, v int) { o.Release(n, opSignal(v)) }

// OpOccupied reports whether node n hosts a placed operation.
func (o *Occupancy) OpOccupied(n int) bool {
	for _, r := range o.held(n) {
		if r.sig < 0 {
			return true
		}
	}
	return false
}

// CanPlaceOp reports whether an operation could be placed on node n, i.e.
// the node still has spare capacity for a new distinct signal.
func (o *Occupancy) CanPlaceOp(n int) bool {
	c := o.cell[n]
	return c.n < c.cap
}

// UseCount returns the total distinct signals at n (for congestion metrics).
func (o *Occupancy) UseCount(n int) int { return int(o.cell[n].n) }
