// Package strpool implements an interned string pool. Ringo's column store
// keeps string columns as int32 pool identifiers (§2.3), so string
// comparison, grouping and joining reduce to integer operations and the
// string bytes are stored exactly once per distinct value.
package strpool

// Pool interns strings, assigning each distinct string a dense non-negative
// int32 id in first-seen order. The zero value is ready to use. A Pool is
// safe for concurrent readers (Get, Len, Bytes) but Intern calls must be
// serialized by the caller; table construction interns strings from a single
// loader goroutine, matching Ringo's design.
type Pool struct {
	ids  map[string]int32
	strs []string
}

// New returns an empty pool with capacity hint n.
func New(n int) *Pool {
	return &Pool{
		ids:  make(map[string]int32, n),
		strs: make([]string, 0, n),
	}
}

// Intern returns the id of s, adding it to the pool if unseen.
func (p *Pool) Intern(s string) int32 {
	if p.ids == nil {
		p.ids = make(map[string]int32)
	}
	if id, ok := p.ids[s]; ok {
		return id
	}
	id := int32(len(p.strs))
	p.ids[s] = id
	p.strs = append(p.strs, s)
	return id
}

// InternBytes is Intern of string(b); a value already in the pool costs
// no allocation.
func (p *Pool) InternBytes(b []byte) int32 {
	if id, ok := p.ids[string(b)]; ok {
		return id
	}
	return p.Intern(string(b))
}

// Lookup returns the id of s without interning. ok is false if s has never
// been interned; such strings cannot match any stored value, which lets
// predicates over string columns short-circuit.
func (p *Pool) Lookup(s string) (id int32, ok bool) {
	id, ok = p.ids[s]
	return id, ok
}

// Get returns the string with the given id. It panics if id is out of
// range, mirroring slice indexing.
func (p *Pool) Get(id int32) string {
	return p.strs[id]
}

// Len reports the number of distinct interned strings.
func (p *Pool) Len() int {
	return len(p.strs)
}

// Bytes estimates the heap footprint of the pool: string headers plus string
// bytes plus the id map. Used by Table.Bytes for the Table 2 experiment.
func (p *Pool) Bytes() int64 {
	var b int64
	for _, s := range p.strs {
		b += int64(len(s)) + 16 // bytes + string header
	}
	// Map overhead: roughly one bucket entry (string header + int32 + slot
	// bookkeeping) per key.
	b += int64(len(p.ids)) * 32
	return b
}

// Clone returns an independent copy of the pool. Tables share pools
// copy-on-write at the Ringo layer; Clone supports the explicit-copy path.
func (p *Pool) Clone() *Pool {
	q := New(len(p.strs))
	q.strs = append(q.strs, p.strs...)
	for s, id := range p.ids {
		q.ids[s] = id
	}
	return q
}
