package apps

import (
	"fmt"
	"sort"

	"harmonia/internal/net"
)

// FlowMask selects which 5-tuple fields a wildcard rule matches on —
// the OVS-style megaflow classification the Host Network offload
// implements alongside its exact-match table.
type FlowMask struct {
	SrcIPBits int // prefix length on the source address
	DstIPBits int // prefix length on the destination address
	Proto     bool
	SrcPort   bool
	DstPort   bool
}

// WildcardRule is one masked rule with a priority (higher wins).
type WildcardRule struct {
	Mask     FlowMask
	Match    net.FlowKey
	Action   FlowAction
	Priority int
}

// maskIP keeps the top bits of an address.
func maskIP(a net.IPAddr, bits int) net.IPAddr {
	if bits >= 32 {
		return a
	}
	if bits <= 0 {
		return net.IPAddr{}
	}
	var out net.IPAddr
	rem := bits
	for i := 0; i < 4; i++ {
		take := rem
		if take > 8 {
			take = 8
		}
		if take > 0 {
			out[i] = a[i] & (byte(0xff) << (8 - take))
		}
		rem -= take
	}
	return out
}

// matches reports whether key falls under the rule.
func (r WildcardRule) matches(key net.FlowKey) bool {
	if maskIP(key.SrcIP, r.Mask.SrcIPBits) != maskIP(r.Match.SrcIP, r.Mask.SrcIPBits) {
		return false
	}
	if maskIP(key.DstIP, r.Mask.DstIPBits) != maskIP(r.Match.DstIP, r.Mask.DstIPBits) {
		return false
	}
	if r.Mask.Proto && key.Proto != r.Match.Proto {
		return false
	}
	if r.Mask.SrcPort && key.SrcPort != r.Match.SrcPort {
		return false
	}
	if r.Mask.DstPort && key.DstPort != r.Match.DstPort {
		return false
	}
	return true
}

// Classifier is the two-stage flow classification pipeline: an
// exact-match cache in front of a priority-ordered wildcard table, the
// shape of a vSwitch fast path. Pinned entries (explicit installs)
// override everything and survive rule changes.
type Classifier struct {
	pinned map[net.FlowKey]FlowAction
	exact  map[net.FlowKey]FlowAction
	rules  []WildcardRule
	// Default applies when nothing matches.
	Default FlowAction
	hits    int64
	misses  int64
}

// NewClassifier returns an empty classifier defaulting to ActionToHost.
func NewClassifier() *Classifier {
	return &Classifier{
		pinned:  make(map[net.FlowKey]FlowAction),
		exact:   make(map[net.FlowKey]FlowAction),
		Default: ActionToHost,
	}
}

// Pin installs an exact-match action that overrides the wildcard table
// and survives rule changes.
func (c *Classifier) Pin(key net.FlowKey, action FlowAction) {
	c.pinned[key] = action
}

// AddRule installs a wildcard rule, keeping rules priority-sorted.
func (c *Classifier) AddRule(r WildcardRule) error {
	if r.Mask.SrcIPBits < 0 || r.Mask.SrcIPBits > 32 || r.Mask.DstIPBits < 0 || r.Mask.DstIPBits > 32 {
		return fmt.Errorf("apps: invalid prefix bits in rule")
	}
	c.rules = append(c.rules, r)
	sort.SliceStable(c.rules, func(i, j int) bool {
		return c.rules[i].Priority > c.rules[j].Priority
	})
	// Rules invalidate the exact-match cache: cached decisions may no
	// longer reflect the rule set.
	c.exact = make(map[net.FlowKey]FlowAction)
	return nil
}

// Classify returns the action for a flow, consulting pinned entries,
// then the exact-match cache, then the wildcard table (populating the
// cache on walks).
func (c *Classifier) Classify(key net.FlowKey) FlowAction {
	if act, ok := c.pinned[key]; ok {
		c.hits++
		return act
	}
	if act, ok := c.exact[key]; ok {
		c.hits++
		return act
	}
	c.misses++
	act := c.Default
	for _, r := range c.rules {
		if r.matches(key) {
			act = r.Action
			break
		}
	}
	c.exact[key] = act
	return act
}
