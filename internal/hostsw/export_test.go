package hostsw

import (
	"fmt"
	"reflect"

	"harmonia/internal/uck"
)

// StaleInitSeqs rebuilds every memoised init sequence, bypassing the
// memo, and names each one whose shared copy no longer equals the
// fresh build. It also reports how many it checked.
func StaleInitSeqs() (checked int, stale []string) {
	initSeqs.Range(func(k, v any) bool {
		key := k.(initSeqKey)
		fresh, err := buildModuleInitRegisters(key.vendor, key.category)
		checked++
		if err != nil || !reflect.DeepEqual(v.([]uck.RegOp), fresh) {
			stale = append(stale, fmt.Sprintf("%s/%s (rebuild error %v)", key.vendor, key.category, err))
		}
		return true
	})
	return checked, stale
}
