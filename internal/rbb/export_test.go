package rbb

import (
	"fmt"
	"reflect"
)

// StaleDescs rebuilds every memoised Desc from its key, bypassing the
// memo, and names each one whose shared copy no longer equals the
// fresh build. It also reports how many it checked.
func StaleDescs() (checked int, stale []string) {
	descs.Range(func(k, v any) bool {
		var fresh *Desc
		var err error
		switch k := k.(type) {
		case networkKey:
			fresh, err = buildNetworkDesc(k.vendor, k.speed)
		case memoryKey:
			fresh, err = buildMemoryDesc(k.vendor, k.kind)
		case hostKey:
			fresh, err = buildHostDesc(k.vendor, k.gen, k.lanes, k.variant)
		default:
			err = fmt.Errorf("unknown key type %T", k)
		}
		checked++
		if err != nil || !reflect.DeepEqual(v, fresh) {
			stale = append(stale, fmt.Sprintf("%+v (rebuild error %v)", k, err))
		}
		return true
	})
	return checked, stale
}

// HostDesc and NetDesc read an RBB's shared structural description.
func HostDesc(h *HostRBB) *Desc { return h.desc }

func NetDesc(n *NetworkRBB) *Desc { return n.desc }
