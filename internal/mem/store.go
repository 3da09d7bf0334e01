package mem

// Store is a sparse byte-addressable backing store, allocated in pages
// so multi-gigabyte address spaces cost only what is touched.
type Store struct {
	pages map[int64][]byte
}

const pageSize = 4096

// NewStore returns an empty store.
func NewStore() *Store { return &Store{pages: make(map[int64][]byte)} }

// Write copies data into the store at addr.
func (s *Store) Write(addr int64, data []byte) {
	for len(data) > 0 {
		page := addr / pageSize
		off := int(addr % pageSize)
		p, ok := s.pages[page]
		if !ok {
			p = make([]byte, pageSize)
			s.pages[page] = p
		}
		n := copy(p[off:], data)
		data = data[n:]
		addr += int64(n)
	}
}

// Read returns size bytes starting at addr; untouched bytes read zero.
func (s *Store) Read(addr int64, size int) []byte {
	out := make([]byte, size)
	dst := out
	for len(dst) > 0 {
		page := addr / pageSize
		off := int(addr % pageSize)
		n := pageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if p, ok := s.pages[page]; ok {
			copy(dst[:n], p[off:off+n])
		}
		dst = dst[n:]
		addr += int64(n)
	}
	return out
}
