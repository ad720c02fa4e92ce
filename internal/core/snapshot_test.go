package core

import (
	"bytes"
	"encoding/hex"
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
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	u := graph.NewUndirectedCap(0)
	u.AddEdge(5, 6)
	ws.SetWithProvenance("T", Object{Table: tbl}, "load T users.tsv User:string Posts:int")
	ws.SetWithProvenance("G", Object{Graph: g}, "tograph G T src dst")
	ws.SetWithProvenance("U", Object{UGraph: u}, "")
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
	g, err := fresh.Graph("G")
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(2, 3) {
		t.Fatal("graph edge lost")
	}
	if o, _ := fresh.Get("U"); o.UGraph == nil || !o.UGraph.HasEdge(6, 5) {
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

// TestSnapshotGoldenScoreFrame restores a snapshot written before scores
// became id-sorted vectors (the map-based encoder sorted keys on the way
// out, so the bytes were already in this order): the frame must decode to
// the same pairs, re-encode byte for byte, and keep fingerprint and digest.
func TestSnapshotGoldenScoreFrame(t *testing.T) {
	golden, err := hex.DecodeString("" +
		"524e4753010000000100000000000000010000000200000050520d0000007061" +
		"676572616e6b205052204701000000000000000448000000000000006e88dc14" +
		"839ac4920400000000000000fdffffffffffffff000000000000c03f00000000" +
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
	if d, _ := ws.Digest(); d != "ab1c55ea23f63c61" {
		t.Fatalf("digest = %s, want ab1c55ea23f63c61", d)
	}
}

// TestSnapshotWritesTheBindingsView holds the three roads Snapshot takes
// to a directed binding's CSR view to the same bytes: a hash binding with
// no resident view (a transient build), the same binding with its view
// resident (Peek, which moves no counter), and the frozen binding Restore
// makes of it, which stays frozen, fills no cache and patches on the first
// query after its first mutation.
func TestSnapshotWritesTheBindingsView(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: testGraph(80, 300, 3)})
	snap := func(ws *Workspace) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := ws.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	transient := snap(ws)
	if h, m, entries, _ := ws.ViewCacheStats(); h != 0 || m != 0 || entries != 0 {
		t.Fatalf("snapshot of a hash binding touched the view cache: %d hits, %d misses, %d entries", h, m, entries)
	}
	if _, err := ws.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	h0, m0, _, _ := ws.ViewCacheStats()
	if resident := snap(ws); !bytes.Equal(resident, transient) {
		t.Fatal("the resident view snapshots to other bytes than a transient build")
	}
	if h, m, _, _ := ws.ViewCacheStats(); h != h0 || m != m0 {
		t.Fatalf("snapshot counted view-cache traffic: hits %d→%d, misses %d→%d", h0, h, m0, m)
	}

	restored := NewWorkspace()
	if err := restored.Restore(bytes.NewReader(transient)); err != nil {
		t.Fatal(err)
	}
	if o, _ := restored.Get("g"); o.View == nil || o.Graph != nil {
		t.Fatal("restore did not bind a frozen view")
	}
	if !bytes.Equal(snap(restored), transient) {
		t.Fatal("the restored binding snapshots to other bytes")
	}
	if _, err := restored.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	if h, m, entries, _ := restored.ViewCacheStats(); h != 0 || m != 0 || entries != 0 {
		t.Fatalf("a frozen binding's view went through the cache: %d hits, %d misses, %d entries", h, m, entries)
	}
	if _, err := restored.AddGraphEdge("g", 1000, 1001); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	if p, r := restored.PatchStats(); p != 1 || r != 0 {
		t.Fatalf("first query after the thaw: %d patches, %d rebuilds; want one patch", p, r)
	}
}
