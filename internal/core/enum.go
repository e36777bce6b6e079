package core

import (
	"fmt"

	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// The enumeration machinery of Section 5. Iterators share a binding array
// (one slot per query variable): open() positions an iterator under the
// currently bound context variables, next() binds the iterator's fresh
// variables and returns the tuple's multiplicity, lookup() returns the
// multiplicity of the currently bound tuple, and close() releases the
// iterator's bindings.
//
// Distinct-tuple semantics across overlapping streams uses the Union
// algorithm (Figure 15); combinations across independent streams use the
// Product algorithm (Figure 16).
//
// All mutable enumeration state lives in an enumCtx, and every enumeration
// runs in a Snapshot's context (frozen relations, own bindings, concurrent
// with writers; snapshot.go). The context owns the binding array and bound
// flags, the work counter, the frozen relation of every node (indexed by
// the node's dense nodeInfo.id), the probe-key scratch of leaf lookups and
// the per-node scratch of grounded lookups. The nodeInfo metadata is shared
// by every snapshot of an engine and is read-only here: scratch never goes
// there.
//
// The iterator tree is built once per Result: newNodeIter resolves each
// node's relation, index and child iterators up front, a product node
// reopens the one prodIter it built for every view tuple, and a grounded
// node builds one instance (with its product) per heavy key it grounds. A
// cursor advance or a multiplicity lookup then only touches relations and
// slots it already holds, so a scan allocates O(#iterator nodes + #grounded
// heavy keys) and nothing per result tuple.

// enumCtx is one enumeration context: the binding slots shared by a tree of
// iterators, the delay-work counter, the snapshot's frozen relations, and
// the lookup scratch, so it is independent of concurrent updates and of
// other snapshots.
type enumCtx struct {
	e     *Engine
	bind  []tuple.Value
	bound []bool
	work  *int64
	rels  []*relation.Relation // frozen relation per nodeInfo.id

	key    tuple.Tuple       // probe key of a leaf lookup (never live across a recursion)
	ground []groundedScratch // per nodeInfo.id, for grounded lookups; built by result
}

// groundedScratch is one grounded node's lookup state in one context. A
// grounded lookup recurses into its children's lookups while it holds
// these, but never into its own node, so one set per node suffices.
type groundedScratch struct {
	rel    *relation.Relation
	ix     *relation.Index // σ_ctx index, when the node has context and fresh variables
	ctxKey tuple.Tuple
	saved  []tuple.Value
	savedB []bool
}

func (c *enumCtx) tick() { *c.work++ }

// relOf resolves the frozen relation backing a node.
func (c *enumCtx) relOf(inf *nodeInfo) *relation.Relation {
	r := c.rels[inf.id]
	if r == nil {
		panic(fmt.Sprintf("core: snapshot did not capture a relation for node %s", inf.node.Name))
	}
	return r
}

type resultIter interface {
	open()
	next() (int64, bool)
	lookup() int64
	close()
	// rebind re-asserts the iterator's current tuple into the shared
	// binding array. Streams from different Union operands interleave and
	// overwrite each other's bindings (each operand binds the same free
	// variables); before a suspended iterator advances, its non-advancing
	// parts must re-assert their current values.
	rebind()
}

// ---------------------------------------------------------------------------
// Node iterators (Figures 13 and 14).

type nodeMode int

const (
	mDirect nodeMode = iota
	mProduct
	mGrounded
)

// nodeIter enumerates the relation represented by one view (sub)tree.
type nodeIter struct {
	c   *enumCtx
	inf *nodeInfo

	mode   nodeMode
	rel    *relation.Relation
	ix     *relation.Index // σ_ctx index, when the node has context and fresh variables
	ctxKey tuple.Tuple     // context values of the current open

	// Cursor state over σ_ctx(rel).
	scan      *relation.Entry     // whole-relation cursor
	icur      *relation.IndexNode // index cursor
	useIndex  bool
	single    bool // all schema vars context-bound: at most one tuple
	singleOK  bool
	singleMul int64

	// Product state (mProduct): the children's product, reopened per view
	// tuple.
	prod  *prodIter
	onTup bool        // a view tuple is currently bound
	curT  tuple.Tuple // current cursor tuple (for rebind)

	// Grounded state (mGrounded): union over per-heavy-key instances.
	buckets *unionIter
}

func (c *enumCtx) newNodeIter(inf *nodeInfo) *nodeIter {
	it := &nodeIter{c: c, inf: inf, rel: c.relOf(inf), ctxKey: make(tuple.Tuple, len(inf.ctxSlot))}
	if len(inf.ctxSchema) > 0 && len(inf.freshPos) > 0 {
		it.ix = it.rel.EnsureIndex(inf.ctxSchema)
	}
	switch {
	case inf.indChild != nil:
		it.mode = mGrounded
	case inf.direct:
		it.mode = mDirect
	default:
		it.mode = mProduct
		it.prod = c.newKidsProd(inf)
	}
	return it
}

// newKidsProd builds the product over iterators of inf's non-indicator
// children.
func (c *enumCtx) newKidsProd(inf *nodeInfo) *prodIter {
	subs := make([]resultIter, len(inf.kids))
	for i, k := range inf.kids {
		subs[i] = c.newNodeIter(k)
	}
	return newProd(subs)
}

// openCursor positions the iterator's relation cursor under the node's
// structural context: the schema variables shared with the parent view,
// whose values ancestors have bound. (Using the runtime bound-set instead
// would absorb stale bindings from sibling Union operands.)
func (it *nodeIter) openCursor() {
	c := it.c
	inf := it.inf
	for i, s := range inf.ctxSlot {
		if !c.bound[s] {
			panic(fmt.Sprintf("core: opening %s with unbound context variable %s", inf.node.Name, inf.ctxSchema[i]))
		}
		it.ctxKey[i] = c.bind[s]
	}
	it.single, it.singleOK = false, false
	it.useIndex = false
	switch {
	case len(inf.ctxSchema) == 0:
		it.scan = it.rel.First()
	case len(inf.freshPos) == 0:
		it.single = true
		it.singleMul = it.rel.Mult(it.ctxKey)
		it.singleOK = it.singleMul != 0
	default:
		it.useIndex = true
		it.icur = it.ix.FirstMatch(it.ctxKey)
	}
}

// cursorNext returns the next matching entry, or nil.
func (it *nodeIter) cursorNext() (tuple.Tuple, int64, bool) {
	it.c.tick()
	if it.single {
		if it.singleOK {
			it.singleOK = false
			return nil, it.singleMul, true
		}
		return nil, 0, false
	}
	if it.useIndex {
		if it.icur == nil {
			return nil, 0, false
		}
		ent := it.icur.Entry()
		it.icur = it.icur.Next()
		return ent.Tuple, ent.Mult, true
	}
	if it.scan == nil {
		return nil, 0, false
	}
	ent := it.scan
	it.scan = it.rel.Next(ent)
	return ent.Tuple, ent.Mult, true
}

// bindFresh writes a view tuple's fresh positions into the binding array.
func (it *nodeIter) bindFresh(t tuple.Tuple) {
	c := it.c
	for k, pos := range it.inf.freshPos {
		s := it.inf.freshSlot[k]
		c.bind[s] = t[pos]
		c.bound[s] = true
	}
}

func (it *nodeIter) unbindFresh() {
	for _, s := range it.inf.freshSlot {
		it.c.bound[s] = false
	}
}

func (it *nodeIter) open() {
	it.openCursor()
	switch it.mode {
	case mGrounded:
		it.openBuckets()
	case mProduct:
		it.onTup = false
	}
}

// openBuckets grounds the heavy indicator (Figure 13, lines 6–11): one
// instance per tuple of σ_ctx(V); the node's view V is a subset of ∃H with
// join support, so grounding over V visits exactly the productive heavy
// keys (proof of Proposition 22).
func (it *nodeIter) openBuckets() {
	var subs []resultIter
	for t, _, ok := it.cursorNext(); ok; t, _, ok = it.cursorNext() {
		g := it.c.newGroundedInst(it.inf)
		for k, pos := range it.inf.freshPos {
			g.h[k] = t[pos]
		}
		subs = append(subs, g)
	}
	it.buckets = newUnion(subs)
	it.buckets.open()
}

func (it *nodeIter) next() (int64, bool) {
	switch it.mode {
	case mGrounded:
		return it.buckets.next()

	case mDirect:
		t, m, ok := it.cursorNext()
		if !ok {
			return 0, false
		}
		it.curT = t
		it.bindFresh(t)
		return m, true

	default: // mProduct
		for {
			if !it.onTup {
				t, _, ok := it.cursorNext()
				if !ok {
					return 0, false
				}
				it.curT = t
				it.bindFresh(t)
				it.onTup = true
				it.prod.open()
			}
			if m, ok := it.prod.next(); ok {
				return m, true
			}
			it.prod.close()
			it.onTup = false
		}
	}
}

func (it *nodeIter) rebind() {
	switch it.mode {
	case mGrounded:
		if it.buckets != nil {
			it.buckets.rebind()
		}
	case mDirect:
		if it.curT != nil {
			it.bindFresh(it.curT)
		}
	default: // mProduct
		if it.onTup {
			it.bindFresh(it.curT)
			it.prod.rebind()
		}
	}
}

func (it *nodeIter) close() {
	switch it.mode {
	case mGrounded:
		if it.buckets != nil {
			it.buckets.close()
			it.buckets = nil
		}
	case mProduct:
		if it.onTup {
			it.prod.close()
			it.onTup = false
		}
	}
	it.unbindFresh()
}

// lookup returns the multiplicity, in the relation represented by this
// subtree, of the tuple formed by the currently bound variables.
func (it *nodeIter) lookup() int64 { return it.c.lookupInfo(it.inf) }

// lookupInfo returns the multiplicity, in the relation represented by the
// subtree at inf, of the tuple formed by the currently bound variables.
func (c *enumCtx) lookupInfo(inf *nodeInfo) int64 {
	if inf.indChild != nil {
		// Grounded lookup: sum over matching heavy keys (the Union
		// algorithm's bucket lookups; O(N^(1−ε)) buckets).
		return c.groundedLookup(inf)
	}
	if inf.direct || len(inf.node.Children) == 0 {
		c.tick()
		key := c.key[:0]
		for i, s := range inf.slots {
			if !c.bound[s] {
				panic(fmt.Sprintf("core: lookup of %s with unbound variable %s", inf.node.Name, inf.schema[i]))
			}
			key = append(key, c.bind[s])
		}
		c.key = key
		return c.relOf(inf).Mult(key)
	}
	return c.lookupKids(inf)
}

// lookupKids returns the product of the lookups of inf's non-indicator
// children, stopping at the first zero.
func (c *enumCtx) lookupKids(inf *nodeInfo) int64 {
	m := int64(1)
	for _, k := range inf.kids {
		km := c.lookupInfo(k)
		if km == 0 {
			return 0
		}
		m *= km
	}
	return m
}

func (c *enumCtx) groundedLookup(inf *nodeInfo) int64 {
	sc := &c.ground[inf.id]
	if sc.rel == nil {
		sc.rel = c.relOf(inf)
		if len(inf.ctxSchema) > 0 && len(inf.freshPos) > 0 {
			sc.ix = sc.rel.EnsureIndex(inf.ctxSchema)
		}
		sc.ctxKey = make(tuple.Tuple, len(inf.ctxSlot))
		sc.saved = make([]tuple.Value, len(inf.freshSlot))
		sc.savedB = make([]bool, len(inf.freshSlot))
	}
	// Context is structural (the variables shared with the parent view);
	// the remaining key variables are summed over. Consulting the runtime
	// bound-set here would wrongly treat a stale binding of a summed heavy
	// variable as a restriction.
	for i, s := range inf.ctxSlot {
		if !c.bound[s] {
			panic(fmt.Sprintf("core: grounded lookup of %s with unbound context variable %s", inf.node.Name, inf.ctxSchema[i]))
		}
		sc.ctxKey[i] = c.bind[s]
	}
	total := int64(0)
	switch {
	case len(inf.ctxSchema) == 0:
		for ent := sc.rel.First(); ent != nil; ent = sc.rel.Next(ent) {
			total += c.groundedTerm(inf, sc, ent.Tuple)
		}
	case len(inf.freshPos) == 0:
		if sc.rel.Mult(sc.ctxKey) != 0 {
			total += c.groundedTerm(inf, sc, sc.ctxKey)
		}
	default:
		for n := sc.ix.FirstMatch(sc.ctxKey); n != nil; n = n.Next() {
			total += c.groundedTerm(inf, sc, n.Entry().Tuple)
		}
	}
	return total
}

// groundedTerm is one heavy key's term of a grounded lookup: bind the
// grounding t, product the children's lookups, restore the bindings.
func (c *enumCtx) groundedTerm(inf *nodeInfo, sc *groundedScratch, t tuple.Tuple) int64 {
	c.tick()
	for k, s := range inf.freshSlot {
		sc.saved[k], sc.savedB[k] = c.bind[s], c.bound[s]
		c.bind[s] = t[inf.freshPos[k]]
		c.bound[s] = true
	}
	m := c.lookupKids(inf)
	for k, s := range inf.freshSlot {
		c.bind[s], c.bound[s] = sc.saved[k], sc.savedB[k]
	}
	return m
}

// ---------------------------------------------------------------------------
// Grounded instances: one per heavy key (Figure 13, lines 8–11).

type groundedInst struct {
	c      *enumCtx
	slots  []int       // binding slots of the grounding (the node's fresh slots)
	h      tuple.Tuple // grounding values for slots
	saved  []tuple.Value
	savedB []bool
	prod   *prodIter // product of the node's children, reopened per open
}

func (c *enumCtx) newGroundedInst(inf *nodeInfo) *groundedInst {
	n := len(inf.freshSlot)
	return &groundedInst{
		c:      c,
		slots:  inf.freshSlot,
		h:      make(tuple.Tuple, n),
		saved:  make([]tuple.Value, n),
		savedB: make([]bool, n),
		prod:   c.newKidsProd(inf),
	}
}

func (g *groundedInst) bindH() {
	for k, s := range g.slots {
		g.c.bind[s] = g.h[k]
		g.c.bound[s] = true
	}
}

func (g *groundedInst) open() {
	g.bindH()
	g.prod.open()
}

func (g *groundedInst) next() (int64, bool) {
	g.bindH()
	return g.prod.next()
}

func (g *groundedInst) rebind() {
	g.bindH()
	g.prod.rebind()
}

func (g *groundedInst) lookup() int64 {
	c := g.c
	for k, s := range g.slots {
		g.saved[k], g.savedB[k] = c.bind[s], c.bound[s]
		c.bind[s] = g.h[k]
		c.bound[s] = true
	}
	m := g.prod.lookup()
	for k, s := range g.slots {
		c.bind[s], c.bound[s] = g.saved[k], g.savedB[k]
	}
	return m
}

func (g *groundedInst) close() {
	g.prod.close()
	for _, s := range g.slots {
		g.c.bound[s] = false
	}
}

// ---------------------------------------------------------------------------
// Product (Figure 16): odometer over independent iterators.

type prodIter struct {
	subs   []resultIter
	mults  []int64
	primed bool
	dead   bool
}

func newProd(subs []resultIter) *prodIter {
	return &prodIter{subs: subs, mults: make([]int64, len(subs))}
}

func (p *prodIter) open() {
	for _, s := range p.subs {
		s.open()
	}
	p.primed, p.dead = false, false
}

func (p *prodIter) product() int64 {
	m := int64(1)
	for _, x := range p.mults {
		m *= x
	}
	return m
}

func (p *prodIter) next() (int64, bool) {
	if p.dead {
		return 0, false
	}
	if len(p.subs) == 0 {
		// Empty product: a single empty tuple with multiplicity 1.
		p.dead = true
		return 1, true
	}
	if !p.primed {
		for i, s := range p.subs {
			m, ok := s.next()
			if !ok {
				p.dead = true
				return 0, false
			}
			p.mults[i] = m
		}
		p.primed = true
		return p.product(), true
	}
	// Streams from other Union operands may have clobbered our children's
	// bindings since the last call; re-assert them before advancing.
	p.rebind()
	for i := len(p.subs) - 1; i >= 0; i-- {
		if m, ok := p.subs[i].next(); ok {
			p.mults[i] = m
			for j := i + 1; j < len(p.subs); j++ {
				p.subs[j].close()
				p.subs[j].open()
				mj, ok := p.subs[j].next()
				if !ok {
					p.dead = true
					return 0, false
				}
				p.mults[j] = mj
			}
			return p.product(), true
		}
	}
	p.dead = true
	return 0, false
}

func (p *prodIter) rebind() {
	if !p.primed || p.dead {
		return
	}
	for _, s := range p.subs {
		s.rebind()
	}
}

func (p *prodIter) lookup() int64 {
	m := int64(1)
	for _, s := range p.subs {
		sm := s.lookup()
		if sm == 0 {
			return 0
		}
		m *= sm
	}
	return m
}

func (p *prodIter) close() {
	for _, s := range p.subs {
		s.close()
	}
}

// ---------------------------------------------------------------------------
// Union (Figure 15, after Durand–Strozecki): enumerate the distinct tuples
// of the union of n possibly-overlapping streams, with the multiplicity of
// each emitted tuple summed across all operands. The delay is the sum of
// the operand delays plus O(n) lookups per tuple.

type unionIter struct {
	subs []resultIter
	last int // operand that produced the last emission, -1 if none
}

func newUnion(subs []resultIter) *unionIter { return &unionIter{subs: subs, last: -1} }

func (u *unionIter) open() {
	for _, s := range u.subs {
		s.open()
	}
	u.last = -1
}

func (u *unionIter) rebind() {
	if u.last >= 0 {
		u.subs[u.last].rebind()
	}
}

func (u *unionIter) next() (int64, bool) {
	return u.nextK(len(u.subs) - 1)
}

// nextK enumerates the union of subs[0..k].
func (u *unionIter) nextK(k int) (int64, bool) {
	if k < 0 {
		return 0, false
	}
	if k == 0 {
		m, ok := u.subs[0].next()
		if ok {
			u.last = 0
		}
		return m, ok
	}
	for {
		m, ok := u.nextK(k - 1)
		if ok {
			if u.subs[k].lookup() == 0 {
				// Fresh w.r.t. subs[k]; multiplicity already summed over
				// subs[0..k-1] by the recursive call, and u.last was set by
				// the operand that emitted the candidate.
				return m, true
			}
			// Duplicate: emit the next tuple of subs[k] instead; the
			// candidate will be (or was already) emitted via subs[k]'s
			// own stream.
			mk, okk := u.subs[k].next()
			if okk {
				u.last = k
				return mk + u.lookupBelow(k), true
			}
			continue // subs[k] exhausted: candidate already emitted; skip it
		}
		mk, okk := u.subs[k].next()
		if !okk {
			return 0, false
		}
		u.last = k
		return mk + u.lookupBelow(k), true
	}
}

func (u *unionIter) lookupBelow(k int) int64 {
	m := int64(0)
	for i := 0; i < k; i++ {
		m += u.subs[i].lookup()
	}
	return m
}

func (u *unionIter) lookup() int64 {
	m := int64(0)
	for _, s := range u.subs {
		m += s.lookup()
	}
	return m
}

func (u *unionIter) close() {
	for _, s := range u.subs {
		s.close()
	}
}

// ---------------------------------------------------------------------------
// Top-level result iterator.

// Iterator enumerates the distinct tuples of the query result with their
// multiplicities: a Product across connected components of a Union across
// each component's view trees.
type Iterator struct {
	c    *enumCtx
	top  resultIter
	out  tuple.Tuple
	done bool
}

// result opens an iterator over the context's view of the query result.
func (c *enumCtx) result() *Iterator {
	// Reset bindings.
	for i := range c.bound {
		c.bound[i] = false
	}
	if c.ground == nil {
		c.ground = make([]groundedScratch, len(c.rels))
	}
	// The roots are the one place enumeration reads the engine's info map;
	// below them, the iterators reach their nodes through nodeInfo.kids.
	var comps []resultIter
	for _, comp := range c.e.forest.Components {
		var trees []resultIter
		for _, t := range comp.Trees {
			trees = append(trees, c.newNodeIter(c.e.info[t]))
		}
		if len(trees) == 1 {
			comps = append(comps, trees[0])
		} else {
			comps = append(comps, newUnion(trees))
		}
	}
	var top resultIter
	if len(comps) == 1 {
		top = comps[0]
	} else {
		top = newProd(comps)
	}
	top.open()
	return &Iterator{c: c, top: top, out: make(tuple.Tuple, len(c.e.freeSlots))}
}

// Next returns the next distinct result tuple (over the query's free
// variables) and its multiplicity. The returned tuple is only valid until
// the next call; clone it to retain.
func (it *Iterator) Next() (tuple.Tuple, int64, bool) {
	if it.done {
		return nil, 0, false
	}
	m, ok := it.top.next()
	if !ok {
		it.done = true
		return nil, 0, false
	}
	c := it.c
	for i, s := range c.e.freeSlots {
		it.out[i] = c.bind[s]
	}
	return it.out, m, true
}

// Close releases the iterator's bindings.
func (it *Iterator) Close() {
	if !it.done {
		it.top.close()
		it.done = true
	}
}
