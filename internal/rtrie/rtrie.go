// Package rtrie implements a binary radix trie over IPv6 prefixes with
// longest-prefix-match lookup. It backs AS attribution (prefix →
// origin AS) and allocation lookups (address → registered allocation),
// mirroring what the paper derives from BGP and WHOIS data.
//
// The trie is a plain binary trie walked one bit at a time. IPv6
// routing tables in this system hold at most a few thousand synthetic
// allocations, so path compression is unnecessary; lookups are O(128)
// worst case and allocation-free.
//
// The zero value of Trie is ready to use. Trie is not safe for
// concurrent mutation; concurrent lookups without writers are safe.
package rtrie

import (
	"fmt"
	"net/netip"

	"v6scan/internal/netaddr6"
)

type node[V any] struct {
	child [2]*node[V]
	val   V
	set   bool
}

// Trie maps IPv6 prefixes to values with longest-prefix-match lookup
// semantics.
type Trie[V any] struct {
	root node[V]
}

// Insert associates v with prefix p, replacing any existing value for
// exactly p. It returns an error if p is not a valid IPv6 prefix.
func (t *Trie[V]) Insert(p netip.Prefix, v V) error {
	if !p.IsValid() || !netaddr6.IsIPv6(p.Addr()) {
		return fmt.Errorf("rtrie: invalid IPv6 prefix %v", p)
	}
	p = p.Masked()
	u := netaddr6.ToU128(p.Addr())
	n := &t.root
	for i := 0; i < p.Bits(); i++ {
		b := u.Bit(i)
		if n.child[b] == nil {
			n.child[b] = &node[V]{}
		}
		n = n.child[b]
	}
	n.val, n.set = v, true
	return nil
}

// Lookup returns the value of the longest prefix containing addr, the
// matched prefix, and whether any prefix matched.
func (t *Trie[V]) Lookup(addr netip.Addr) (V, netip.Prefix, bool) {
	var (
		bestVal V
		bestLen = -1
	)
	if !netaddr6.IsIPv6(addr) {
		var zero V
		return zero, netip.Prefix{}, false
	}
	u := netaddr6.ToU128(addr)
	n := &t.root
	for i := 0; ; i++ {
		if n.set {
			bestVal, bestLen = n.val, i
		}
		if i == 128 {
			break
		}
		n = n.child[u.Bit(i)]
		if n == nil {
			break
		}
	}
	if bestLen < 0 {
		var zero V
		return zero, netip.Prefix{}, false
	}
	p, _ := addr.Prefix(bestLen)
	return bestVal, p, true
}
