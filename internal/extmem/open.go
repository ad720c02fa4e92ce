package extmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"ringo/internal/frame"
	"ringo/internal/graph"
	"ringo/internal/par"
	"ringo/internal/xhash"
)

// ErrNoMmap reports that this build has no mmap shim for the host platform.
// OpenMapped fails with it; Open catches it and reads the file onto the
// heap instead (Read), which is correct but loses the beyond-RAM property.
var ErrNoMmap = errors.New("extmem: no mmap support on this platform; RNGM graphs load by reading the file into memory (extmem.Read)")

// Graph is an opened RNGM image: the raw bytes (mapped or heap-copied) plus
// a graph.View / graph.UView assembled directly over them. The view pins
// the Graph, and the Graph pins the mapping, so views handed to algorithms
// or the view cache stay valid even after the Graph itself goes out of
// scope; a runtime cleanup releases the mapping once nothing references it.
// Close releases it eagerly — only safe once no views over it are in use.
type Graph struct {
	path   string
	data   []byte
	mapped bool
	kind   uint32
	view   *graph.View  // non-nil iff kind == kindDirected
	uview  *graph.UView // non-nil iff kind == kindUndirected

	closer *mapCloser
}

// mapCloser releases a mapping exactly once. It is a separate object so the
// runtime cleanup can reference it without keeping the Graph (and therefore
// the cleanup's own trigger) alive.
type mapCloser struct {
	once  sync.Once
	unmap func() error
	err   error
}

func (c *mapCloser) close() error {
	c.once.Do(func() {
		if c.unmap != nil {
			c.err = c.unmap()
		}
	})
	return c.err
}

// OpenMapped opens an RNGM image via the platform mmap, validates it, and
// serves it as a queryable view without decoding the arrays. On platforms
// without an mmap shim it fails with ErrNoMmap.
func OpenMapped(path string) (*Graph, error) {
	if !mmapSupported {
		return nil, fmt.Errorf("extmem: open %s: %w", path, ErrNoMmap)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() == 0 {
		return nil, fmt.Errorf("extmem: %s: empty file", path)
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	g, err := finish(path, data, true, unmap)
	if err != nil {
		unmap()
		return nil, err
	}
	return g, nil
}

// Open opens an RNGM image, preferring the zero-copy mapped path and
// falling back to Read where mmap is unavailable.
func Open(path string) (*Graph, error) {
	g, err := OpenMapped(path)
	if err == nil || !errors.Is(err, ErrNoMmap) {
		return g, err
	}
	return Read(path)
}

// Read reads the whole RNGM image at path onto the heap and validates it
// as OpenMapped does. Sections alias the copy where it is aligned for
// them, as they would a mapping, and are decoded where it is not; the
// views own nothing else, so a binding over them can be patched and
// snapshotted like any heap view.
func Read(path string) (*Graph, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("extmem: %s: empty file", path)
	}
	return finish(path, raw, false, nil)
}

// Sniff returns the first four bytes of the file at path — Magic for an
// RNGM image — or "" when the file cannot be read or is shorter. Loaders
// branch on it before choosing a reader, whose own error then names what
// is wrong with a file Sniff could not read.
func Sniff(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	var head [len(Magic)]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return ""
	}
	return string(head[:])
}

// finish validates a raw image and assembles the Graph over it.
func finish(path string, data []byte, mapped bool, unmap func() error) (*Graph, error) {
	g := &Graph{path: path, data: data, mapped: mapped, closer: &mapCloser{unmap: unmap}}
	if err := g.parse(); err != nil {
		return nil, fmt.Errorf("extmem: %s: %w", path, err)
	}
	// Backstop release: once neither the Graph nor any view retaining it is
	// reachable, the mapping goes away even without an explicit Close. The
	// closure must capture only the closer, never g itself.
	runtime.AddCleanup(g, func(c *mapCloser) { c.close() }, g.closer)
	return g, nil
}

// parse validates the header, section table, checksums and array
// invariants, then aliases the sections into a view. Every check mirrors
// the other decoders' hardening: truncation, absurd counts, lying lengths,
// corrupt payloads and inconsistent arrays all fail with a named error
// before any algorithm can index out of bounds or answer wrongly.
func (g *Graph) parse() error {
	data := g.data
	if int64(len(data)) < fixedHeaderLen+8 {
		return fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if string(data[:4]) != Magic {
		return fmt.Errorf("not a mapped graph image (magic %q)", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != mappedVersion {
		return fmt.Errorf("unsupported %s version %d", Magic, v)
	}
	g.kind = binary.LittleEndian.Uint32(data[8:])
	var nsections int
	switch g.kind {
	case kindDirected:
		nsections = 5
	case kindUndirected:
		nsections = 3
	default:
		return fmt.Errorf("unknown graph kind %d", g.kind)
	}
	nnodes := binary.LittleEndian.Uint64(data[16:])
	nentries := binary.LittleEndian.Uint64(data[24:])
	if nnodes > frame.MaxCount || nentries > frame.MaxCount {
		return fmt.Errorf("implausible header counts (%d nodes, %d edge entries)", nnodes, nentries)
	}
	if got := binary.LittleEndian.Uint64(data[32:]); got != uint64(nsections) {
		return fmt.Errorf("header claims %d sections, %s images have %d", got, kindName(g.kind), nsections)
	}
	hdr := headerLen(nsections)
	if int64(len(data)) < hdr {
		return fmt.Errorf("truncated section table (%d bytes, header needs %d)", len(data), hdr)
	}
	if got, want := binary.LittleEndian.Uint64(data[hdr-8:]), xhash.Checksum64(data[:hdr-8]); got != want {
		return fmt.Errorf("header checksum mismatch (file %x, computed %x)", got, want)
	}

	// Section lengths are fully determined by the header counts; a table
	// that disagrees is lying about the layout.
	n, e := int64(nnodes), int64(nentries)
	var want []int64
	switch g.kind {
	case kindDirected:
		want = []int64{n * 8, (n + 1) * 8, (n + 1) * 8, e * 4, e * 4}
	case kindUndirected:
		want = []int64{n * 8, (n + 1) * 8, e * 4}
	}
	type span struct{ off, len int64 }
	spans := make([]span, nsections)
	prevEnd := hdr
	for i := 0; i < nsections; i++ {
		ent := data[fixedHeaderLen+i*sectionEntryLen:]
		off := binary.LittleEndian.Uint64(ent)
		length := binary.LittleEndian.Uint64(ent[8:])
		if off > uint64(len(data)) || off%pageAlign != 0 {
			return fmt.Errorf("section %d offset %d misaligned or out of range", i, off)
		}
		if int64(length) != want[i] {
			return fmt.Errorf("section %d length %d disagrees with header counts (want %d)", i, length, want[i])
		}
		if int64(off) < prevEnd {
			return fmt.Errorf("section %d at offset %d overlaps preceding bytes (end %d)", i, off, prevEnd)
		}
		if uint64(len(data))-off < length {
			return fmt.Errorf("section %d (offset %d, length %d) extends past file end (%d bytes)", i, off, length, len(data))
		}
		spans[i] = span{int64(off), int64(length)}
		prevEnd = int64(off) + int64(length)
	}

	// Payload checksums, one worker per section: a linear read of the file
	// with no allocation — cheap next to a decode, and it catches the bit
	// rot the structural checks below cannot.
	sumErrs := make([]error, nsections)
	par.ForEach(nsections, func(i int) {
		ent := data[fixedHeaderLen+i*sectionEntryLen:]
		wantSum := binary.LittleEndian.Uint64(ent[16:])
		if got := xhash.Checksum64(data[spans[i].off : spans[i].off+spans[i].len]); got != wantSum {
			sumErrs[i] = fmt.Errorf("section %d checksum mismatch (file %x, computed %x)", i, wantSum, got)
		}
	})
	for _, err := range sumErrs {
		if err != nil {
			return err
		}
	}

	switch g.kind {
	case kindDirected:
		ids := frame.Section[int64](data, spans[0].off, spans[0].len)
		outOff := frame.Section[int64](data, spans[1].off, spans[1].len)
		inOff := frame.Section[int64](data, spans[2].off, spans[2].len)
		out := frame.Section[int32](data, spans[3].off, spans[3].len)
		in := frame.Section[int32](data, spans[4].off, spans[4].len)
		v, err := graph.ViewFromArrays(ids, outOff, inOff, out, in, g)
		if err != nil {
			return err
		}
		g.view = v
	case kindUndirected:
		ids := frame.Section[int64](data, spans[0].off, spans[0].len)
		off := frame.Section[int64](data, spans[1].off, spans[1].len)
		arena := frame.Section[int32](data, spans[2].off, spans[2].len)
		u, err := graph.UViewFromArrays(ids, off, arena, g)
		if err != nil {
			return err
		}
		g.uview = u
	}
	return nil
}

// Path returns the file the image was opened from.
func (g *Graph) Path() string { return g.path }

// Kind reports "directed" or "undirected".
func (g *Graph) Kind() string { return kindName(g.kind) }

// View returns the directed view served over the image, or nil for
// undirected images.
func (g *Graph) View() *graph.View { return g.view }

// UView returns the undirected view served over the image, or nil for
// directed images.
func (g *Graph) UView() *graph.UView { return g.uview }

// NumNodes reports the node count of the image.
func (g *Graph) NumNodes() int {
	if g.view != nil {
		return g.view.NumNodes()
	}
	return g.uview.NumNodes()
}

// NumEdges reports the edge count: directed edges for directed images,
// undirected edges (self-loops once) for undirected ones.
func (g *Graph) NumEdges() int64 {
	if g.view != nil {
		return g.view.NumEdges()
	}
	return g.uview.NumEdges()
}

// Bytes reports the size of the backing image in bytes.
func (g *Graph) Bytes() int64 { return int64(len(g.data)) }

// Mapped reports whether the image is served by mmap (true) or the
// read-into-memory fallback (false).
func (g *Graph) Mapped() bool { return g.mapped }

// Close releases the mapping. It is safe to call more than once, but must
// not race with algorithms still reading views over this image — the pages
// vanish under them. Long-lived owners (workspaces) should simply drop the
// Graph and let the runtime cleanup release it.
func (g *Graph) Close() error { return g.closer.close() }
