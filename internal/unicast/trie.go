package unicast

import "pim/internal/addr"

// lpmTrie is an 8-bit-stride multibit trie with prefix expansion: depth d
// indexes byte d of the destination address, and a prefix of length L is
// expanded across the 2^(8·ceil(L/8)−L) slots it covers in the node at
// depth ceil(L/8)−1 (the default route fills the whole root). Each slot
// remembers the longest prefix covering it, so a lookup is at most four
// array loads with no comparisons against other prefixes — the classic
// controlled prefix expansion scheme (Srinivasan & Varghese).
//
// Mutation strategy: inserts update slots in place (a slot adopts the new
// route when its current covering prefix is no longer than the inserted
// one); deletes and wholesale replaces mark the trie dirty and it is
// rebuilt from the authoritative sorted entry slice on the next lookup.
// Route withdrawals are rare next to the per-packet lookups and the
// convergence-time insert storms that the incremental path keeps cheap.
// A rebuild clears and reuses the nodes the trie already owns, so a table
// rewrite (every table, after one link change under the oracle) allocates
// nothing once the trie has reached its size.
//
// Routes with InfMetric never enter the trie: unreachable routes do not
// shadow shorter reachable prefixes (the linear scan in lpm_test.go pins
// this).
type lpmTrie struct {
	root  *trieNode
	dirty bool
	// nodes is every node the trie owns, in allocation order; the first
	// used of them are the live ones (root first).
	nodes []*trieNode
	used  int
}

// trieNode is one 256-way level. lens[i] is the length of the prefix whose
// expansion owns slot i, or -1 when no prefix covers the slot at this
// level. A slot can simultaneously hold a route and a child: the route is
// the fallback when the deeper levels produce no match.
type trieNode struct {
	children [256]*trieNode
	routes   [256]Route
	lens     [256]int16
}

// node returns an empty node, reusing one the trie owns when it can.
func (t *lpmTrie) node() *trieNode {
	if t.used == len(t.nodes) {
		t.nodes = append(t.nodes, new(trieNode))
	}
	n := t.nodes[t.used]
	t.used++
	*n = trieNode{}
	for i := range n.lens {
		n.lens[i] = -1
	}
	return n
}

// insert installs a reachable route for p, overwriting any slot whose
// current covering prefix is no longer than p.Len.
func (t *lpmTrie) insert(p addr.Prefix, r Route) {
	if t.root == nil {
		t.root = t.node()
	}
	n := t.root
	// Walk the fully-specified leading bytes.
	depth := 0
	for ; (depth+1)*8 < p.Len; depth++ {
		b := byte(p.Addr >> (24 - 8*depth))
		child := n.children[b]
		if child == nil {
			child = t.node()
			n.children[b] = child
		}
		n = child
	}
	// Expand the remaining (possibly partial) byte across its slot range.
	k := p.Len - 8*depth // bits specified in this byte: 0 (default) .. 8
	base := int(byte(p.Addr >> (24 - 8*depth)))
	if p.Len == 0 {
		base = 0
	}
	count := 1 << (8 - k)
	start := base &^ (count - 1)
	for i := start; i < start+count; i++ {
		if int(n.lens[i]) <= p.Len {
			n.routes[i] = r
			n.lens[i] = int16(p.Len)
		}
	}
}

// lookup walks one byte per level, remembering the deepest covering route.
func (t *lpmTrie) lookup(dst addr.IP) (Route, bool) {
	n := t.root
	var best Route
	found := false
	for depth := 0; n != nil && depth < 4; depth++ {
		b := byte(dst >> (24 - 8*depth))
		if n.lens[b] >= 0 {
			best = n.routes[b]
			found = true
		}
		n = n.children[b]
	}
	return best, found
}

// rebuild reconstructs the trie from the authoritative entry slice,
// skipping unreachable routes. Entries are sorted most-specific first, so
// inserting in reverse order means every slot write wins (lens monotonically
// grow), but insert's covering check makes order irrelevant anyway.
func (t *lpmTrie) rebuild(entries []tableEntry) {
	t.used = 0
	t.root = t.node()
	t.dirty = false
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].route.Metric < InfMetric {
			t.insert(entries[i].prefix, entries[i].route)
		}
	}
}
