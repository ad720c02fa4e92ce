package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ringo/internal/algo"
	"ringo/internal/graph"
	"ringo/internal/table"
)

// snapshotWorkspace builds a workspace holding all four object kinds — a
// table with a string column, a directed graph, an undirected graph and a
// score vector — the exact mix the acceptance criteria call for.
func snapshotWorkspace(t *testing.T) *Workspace {
	t.Helper()
	ws := NewWorkspace()
	tbl, err := table.New(table.Schema{
		{Name: "User", Type: table.String},
		{Name: "Posts", Type: table.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		u string
		n int64
	}{{"alice", 4}, {"bob", 2}, {"", 0}} {
		if err := tbl.AppendRow(row.u, row.n); err != nil {
			t.Fatal(err)
		}
	}
	g, err := graph.BuildDirectedCols([]int64{1, 2}, []int64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ws.SetWithProvenance("T", Object{Table: tbl}, "load T users.tsv User:string Posts:int")
	ws.SetWithProvenance("G", Object{Graph: g}, "tograph G T src dst")
	ws.SetWithProvenance("U", Object{UView: symmetricUView([]int64{5}, []int64{6}, nil)}, "")
	ws.SetWithProvenance("PR", Object{Scores: algo.Scores{{ID: 1, Score: 0.7}, {ID: 2, Score: 0.3}}}, "pagerank PR G")
	return ws
}

func TestWorkspaceSnapshotRestoreRoundTrip(t *testing.T) {
	ws := snapshotWorkspace(t)
	var buf bytes.Buffer
	if err := ws.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restoring into a fresh workspace must reproduce names, provenance
	// and fingerprints byte-for-byte.
	fresh := NewWorkspace()
	if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	wantNames := ws.Names()
	gotNames := fresh.Names()
	if len(gotNames) != len(wantNames) {
		t.Fatalf("names = %v, want %v", gotNames, wantNames)
	}
	for i, name := range wantNames {
		if gotNames[i] != name {
			t.Fatalf("names = %v, want %v", gotNames, wantNames)
		}
		if got, want := fresh.Provenance(name), ws.Provenance(name); got != want {
			t.Fatalf("provenance(%s) = %q, want %q", name, got, want)
		}
		wantFP, _ := ws.Fingerprint(name)
		gotFP, ok := fresh.Fingerprint(name)
		if !ok || gotFP != wantFP {
			t.Fatalf("fingerprint(%s) = %q, want %q", name, gotFP, wantFP)
		}
	}
	tbl, err := fresh.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 || tbl.Value(0, 0) != "alice" || tbl.Value(0, 2) != "" {
		t.Fatalf("table content lost: %d rows", tbl.NumRows())
	}
	g, err := fresh.DirectedView("G")
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(2, 3) {
		t.Fatal("graph edge lost")
	}
	if o, _ := fresh.Get("U"); o.UView == nil || !o.UView.HasEdge(6, 5) {
		t.Fatal("ugraph lost")
	}
	sc, err := fresh.Scores("PR")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sc.Get(1); v != 0.7 {
		t.Fatalf("scores lost: %v", sc)
	}
}

// TestWorkspaceRestoreBumpsVersionsOverLiveState: restoring over a dirty
// workspace must issue fingerprints unlike any handed out before, so a
// cache keyed by pre-restore fingerprints cannot serve stale results.
func TestWorkspaceRestoreBumpsVersionsOverLiveState(t *testing.T) {
	ws := snapshotWorkspace(t)
	var buf bytes.Buffer
	if err := ws.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	live := NewWorkspace()
	live.Set("T", Object{Scores: algo.Scores{{ID: 9, Score: 9}}})
	live.Set("other", Object{Scores: algo.Scores{{ID: 1, Score: 1}}})
	preFP, _ := live.Fingerprint("T")

	if err := live.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Replaced wholesale: the non-snapshot binding is gone.
	if _, ok := live.Get("other"); ok {
		t.Fatal("restore merged instead of swapping")
	}
	postFP, ok := live.Fingerprint("T")
	if !ok {
		t.Fatal("T missing after restore")
	}
	if postFP == preFP {
		t.Fatalf("restored fingerprint %q collides with pre-restore state", postFP)
	}
	// New bindings after restore must keep advancing past everything.
	live.Set("new", Object{Scores: algo.Scores{{ID: 5, Score: 5}}})
	vNew, _ := live.Version("new")
	for _, name := range live.Names() {
		if name == "new" {
			continue
		}
		if v, _ := live.Version(name); v >= vNew {
			t.Fatalf("restored %s version %d not below fresh binding version %d", name, v, vNew)
		}
	}
}

func TestWorkspaceRestoreRejectsCorruptSnapshotUntouched(t *testing.T) {
	ws := snapshotWorkspace(t)
	var buf bytes.Buffer
	if err := ws.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	mangled := append([]byte(nil), buf.Bytes()...)
	mangled[len(mangled)-4] ^= 0xff // corrupt the last object's payload

	target := NewWorkspace()
	target.Set("keep", Object{Scores: algo.Scores{{ID: 1, Score: 1}}})
	err := target.Restore(bytes.NewReader(mangled))
	if err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if !strings.Contains(err.Error(), `"PR"`) {
		t.Fatalf("error %q does not name the corrupt object", err)
	}
	if _, ok := target.Get("keep"); !ok {
		t.Fatal("failed restore clobbered the workspace")
	}
}

// TestSnapshotDigestSurvivesRestore pins the property the cluster tier's
// fingerprint-verified shipping stands on: restoring a snapshot into a
// fresh workspace reproduces the content digest exactly, across
// generations, while any content change — even one that leaves every
// name#version fingerprint identical — moves it.
func TestSnapshotDigestSurvivesRestore(t *testing.T) {
	ws := snapshotWorkspace(t)
	want, err := ws.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 16 {
		t.Fatalf("digest %q is not 16 hex digits", want)
	}

	var buf bytes.Buffer
	if err := ws.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewWorkspace()
	if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("digest changed across restore: %s -> %s", want, got)
	}

	// Second generation: restore the restored workspace's snapshot.
	var buf2 bytes.Buffer
	if err := fresh.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	gen2 := NewWorkspace()
	if err := gen2.Restore(bytes.NewReader(buf2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d, _ := gen2.Digest(); d != want {
		t.Fatalf("digest drifted at generation 2: %s -> %s", want, d)
	}

	// A content tamper that preserves versions: rebuild the same workspace
	// with one score nudged. Fingerprints agree, the digest must not.
	tampered := snapshotWorkspace(t)
	tampered.mu.Lock()
	tampered.objs["PR"].Scores[0].Score = 0.70001
	tampered.mu.Unlock()
	for _, name := range ws.Names() {
		a, _ := ws.Fingerprint(name)
		b, ok := tampered.Fingerprint(name)
		if !ok || a != b {
			t.Fatalf("test setup: fingerprints diverged for %s (%s vs %s)", name, a, b)
		}
	}
	if d, _ := tampered.Digest(); d == want {
		t.Fatal("digest did not detect a content change invisible to name#version fingerprints")
	}
}
func TestWorkspaceSnapshotFileRoundTrip(t *testing.T) {
	ws := snapshotWorkspace(t)
	path := t.TempDir() + "/ws.rsnp"
	if err := ws.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewWorkspace()
	if err := fresh.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Names()) != 4 {
		t.Fatalf("restored %d objects, want 4", len(fresh.Names()))
	}
	if err := fresh.RestoreFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestSnapshotGoldenScoreFrame restores a score frame written before
// scores became id-sorted vectors (the map-based encoder sorted keys on the
// way out, so the bytes were already in this order), under the version-3
// header: versions 2 and 3 changed graph records, table records and the
// checksum, never a score payload's bytes. The frame must decode to the
// same pairs, re-encode byte for byte, and keep fingerprint and digest.
func TestSnapshotGoldenScoreFrame(t *testing.T) {
	golden, err := hex.DecodeString("" +
		"524e4753030000000100000000000000010000000200000050520d0000007061" +
		"676572616e6b2050522047010000000000000004480000000000000075126d78" +
		"305c4e060400000000000000fdffffffffffffff000000000000c03f00000000" +
		"00000000000000000000e03f0700000000000000000000000000d03f00000000" +
		"00010000000000000000c03f")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	if err := ws.Restore(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	want := algo.Scores{{ID: -3, Score: 0.125}, {ID: 0, Score: 0.5}, {ID: 7, Score: 0.25}, {ID: 1 << 40, Score: 0.125}}
	if got, err := ws.Scores("PR"); err != nil || !slices.Equal(got, want) {
		t.Fatalf("decoded %v, %v; want %v", got, err, want)
	}
	if fp, _ := ws.Fingerprint("PR"); fp != "PR#1" {
		t.Fatalf("fingerprint = %q, want PR#1", fp)
	}
	var out bytes.Buffer
	if err := ws.Snapshot(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatalf("re-encoded snapshot differs from the golden bytes:\n got %x\nwant %x", out.Bytes(), golden)
	}
	if d, _ := ws.Digest(); d != "c188346c30303644" {
		t.Fatalf("digest = %s, want c188346c30303644", d)
	}
}

// TestSnapshotWritesTheBindingsView holds the roads Snapshot takes to a
// graph binding's view to the same bytes: the view a hash graph is bound
// as (which the snapshot builds, once), the view Restore binds (which
// fills no cache), and, once mutations are pending, the fold the snapshot
// binds (one patch, which the next query does not repeat) — so Digest
// reads the same before and after that fold, and the bytes restore to the
// mutated graph.
func TestSnapshotWritesTheBindingsView(t *testing.T) {
	g := testGraph(80, 300, 3)
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: g.graph()})
	snap := func(ws *Workspace) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := ws.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bound := snap(ws)
	if p, r := ws.PatchStats(); p != 0 || r != 1 {
		t.Fatalf("snapshot of a hash graph binding: %d patches, %d rebuilds; want its one build", p, r)
	}
	if o, _ := ws.Get("g"); o.View == nil || o.Graph != nil {
		t.Fatal("the snapshot did not bind the view it built")
	}

	restored := NewWorkspace()
	if err := restored.Restore(bytes.NewReader(bound)); err != nil {
		t.Fatal(err)
	}
	if o, _ := restored.Get("g"); o.View == nil || o.Graph != nil {
		t.Fatal("restore did not bind a view")
	}
	if !bytes.Equal(snap(restored), bound) {
		t.Fatal("the restored binding snapshots to other bytes")
	}
	if _, err := restored.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	if h, m, entries, _ := restored.ViewCacheStats(); h != 0 || m != 0 || entries != 0 {
		t.Fatalf("a directed query moved the projection counters: %d hits, %d misses, %d held", h, m, entries)
	}

	for _, e := range [][2]int64{{1000, 1001}, {1, 1000}} {
		g.addEdge(e[0], e[1])
		if ok, err := restored.AddGraphEdge("g", e[0], e[1]); err != nil || !ok {
			t.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
		}
	}
	before, err := restored.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if p, r := restored.PatchStats(); p != 1 || r != 0 {
		t.Fatalf("a digest with deltas pending: %d patches, %d rebuilds; want one fold", p, r)
	}
	folded := snap(restored)
	if _, err := restored.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	if p, r := restored.PatchStats(); p != 1 || r != 0 {
		t.Fatalf("first query after the snapshot: %d patches, %d rebuilds; want no second fold", p, r)
	}
	if after, _ := restored.Digest(); after != before || !bytes.Equal(snap(restored), folded) {
		t.Fatalf("the fold moved the snapshot: digest %s -> %s", before, after)
	}
	again := NewWorkspace()
	if err := again.Restore(bytes.NewReader(folded)); err != nil {
		t.Fatal(err)
	}
	v, err := again.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	sameViewT(t, "restored after the mutations", v, g.view())
}

// TestRestoreOwnSnapshotKeepsClockBounded: restoring a workspace's own
// snapshot over it again and again issues fresh versions each time, past
// everything before and in the saved order, while the clock grows by the
// number of bindings per restore rather than doubling (which wrapped it
// after 64 restores, and with it the order pending deltas are told by).
func TestRestoreOwnSnapshotKeepsClockBounded(t *testing.T) {
	ws := snapshotWorkspace(t)
	ws.Set("g", Object{View: testGraph(10, 20, 1).view()})
	n := uint64(len(ws.Names()))
	for i := 0; i < 100; i++ {
		before := map[string]uint64{}
		for _, name := range ws.Names() {
			before[name], _ = ws.Version(name)
		}
		clock := ws.clock
		var buf bytes.Buffer
		if err := ws.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ws.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		if ws.clock != clock+n {
			t.Fatalf("restore %d: clock %d -> %d, want +%d", i, clock, ws.clock, n)
		}
		for _, a := range ws.Names() {
			va, _ := ws.Version(a)
			if va <= clock {
				t.Fatalf("restore %d: %s kept version %d, not past the clock %d", i, a, va, clock)
			}
			for _, b := range ws.Names() {
				if vb, _ := ws.Version(b); (before[a] < before[b]) != (va < vb) {
					t.Fatalf("restore %d: %s and %s changed order", i, a, b)
				}
			}
		}
	}
	if ok, err := ws.AddGraphEdge("g", 100, 101); err != nil || !ok {
		t.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
	}
	if o, _ := ws.Get("g"); !o.View.HasEdge(100, 101) {
		t.Fatal("the mutation after the restores was not folded")
	}
}

// TestRestoredTableEditsStayInItsBlocks: a restored table's row ids and
// columns alias the payload its record was read into, block after block.
// Each must end where its block does (cap == len), so editing the table in
// place — select, append a row, order — changes the table the way the same
// edits change the table it was saved from, and nothing else: the graph
// and scores restored beside it stay as they were, and a second restore of
// the same bytes equals the first.
func TestRestoredTableEditsStayInItsBlocks(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "User", Type: table.String},
		{Name: "Posts", Type: table.Int},
		{Name: "Rank", Type: table.Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 40 {
		if err := tbl.AppendRow(fmt.Sprintf("u%d", i%7), int64(i*37%11), float64(i)/8); err != nil {
			t.Fatal(err)
		}
	}
	g, err := graph.BuildViewCols([]int64{1, 2, 3, 3}, []int64{2, 3, 1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ws.Set("T", Object{Table: tbl})
	ws.Set("G", Object{View: g})
	ws.Set("PR", Object{Scores: algo.PageRankView(g, algo.DefaultDamping, 10)})
	var buf bytes.Buffer
	if err := ws.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	first := NewWorkspace()
	if err := first.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	firstDigest, err := first.Digest()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := first.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	users, _ := rt.IntCol("User")
	posts, _ := rt.IntCol("Posts")
	ranks, _ := rt.FloatCol("Rank")
	for name, c := range map[string][2]int{
		"row ids": {len(rt.RowIDs()), cap(rt.RowIDs())},
		"User":    {len(users), cap(users)},
		"Posts":   {len(posts), cap(posts)},
		"Rank":    {len(ranks), cap(ranks)},
	} {
		if c[0] != 40 || c[1] != c[0] {
			t.Fatalf("restored %s: len %d, cap %d, want both 40", name, c[0], c[1])
		}
	}
	rv, err := first.DirectedView("G")
	if err != nil {
		t.Fatal(err)
	}
	ids, outOff, inOff, out, in := rv.ViewParts()
	graphBefore := [][]int64{slices.Clone(ids), slices.Clone(outOff), slices.Clone(inOff)}
	arenasBefore := [][]int32{slices.Clone(out), slices.Clone(in)}
	rs, err := first.Scores("PR")
	if err != nil {
		t.Fatal(err)
	}
	scoresBefore := slices.Clone(rs)

	for _, tb := range []*table.Table{rt, tbl} {
		if _, err := tb.SelectInPlace("Posts", table.GE, int64(3)); err != nil {
			t.Fatal(err)
		}
		if err := tb.AppendRow("new", int64(99), -1.5); err != nil {
			t.Fatal(err)
		}
		if err := tb.OrderBy(true, "Posts", "Rank"); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(rt.RowIDs(), tbl.RowIDs()) || rt.NumRows() != tbl.NumRows() {
		t.Fatalf("edited restored table has rows %v, the edited original %v", rt.RowIDs(), tbl.RowIDs())
	}
	for c := range tbl.NumCols() {
		for r := range tbl.NumRows() {
			if got, want := rt.Value(c, r), tbl.Value(c, r); got != want {
				t.Fatalf("edited restored table cell (%d,%d) = %v, the edited original %v", c, r, got, want)
			}
		}
	}
	ids, outOff, inOff, out, in = rv.ViewParts()
	if !slices.Equal(ids, graphBefore[0]) || !slices.Equal(outOff, graphBefore[1]) || !slices.Equal(inOff, graphBefore[2]) ||
		!slices.Equal(out, arenasBefore[0]) || !slices.Equal(in, arenasBefore[1]) {
		t.Fatal("editing the restored table changed the restored graph")
	}
	if !slices.Equal(rs, scoresBefore) {
		t.Fatal("editing the restored table changed the restored scores")
	}

	second := NewWorkspace()
	if err := second.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d, err := second.Digest(); err != nil || d != firstDigest {
		t.Fatalf("second restore digests %s (%v), the first %s", d, err, firstDigest)
	}
}
