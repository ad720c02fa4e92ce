package core

import (
	"fmt"
	"io"
	"os"
	"slices"

	"ringo/internal/frame"
	"ringo/internal/snapshot"
	"ringo/internal/xhash"
)

// Snapshot serializes the workspace — every object with its provenance and
// version, plus the version clock — to out in the binary snapshot format
// (see internal/snapshot for the layout). The workspace read lock is held
// for the whole write, so the snapshot is a consistent cut: no binding can
// be added, dropped or rebound while it is being taken. Every graph
// binding is settled first (see current), so the snapshot writes the view
// its next query would read.
func (w *Workspace) Snapshot(out io.Writer) error {
	w.rlockSettled()
	defer w.mu.RUnlock()
	objs := make([]snapshot.Object, 0, len(w.order))
	for _, name := range w.order {
		o := w.objs[name]
		if o.Mapped != nil {
			// A mapped graph already lives in its own durable file;
			// copying it into a snapshot would both bloat the snapshot and
			// silently demote the binding to a decoded heap graph on
			// restore. Point the user at the file instead.
			return fmt.Errorf("core: %q is a mapped graph served from %s; snapshots exclude mapped bindings (drop it or re-open the RNGM file after restore)",
				name, o.Mapped.Path())
		}
		objs = append(objs, snapshot.Object{
			Name:       name,
			Provenance: w.prov[name],
			Version:    w.ver[name],
			Table:      o.Table,
			View:       o.View,
			UView:      o.UView,
			Scores:     o.Scores,
		})
	}
	return snapshot.Write(out, w.clock, objs)
}

// Restore replaces the workspace contents with the objects of a snapshot.
// Decoding happens before any lock is taken; the object map is then swapped
// atomically under the write lock, so concurrent readers see either the old
// workspace or the new one, never a mix — and a corrupt snapshot leaves the
// workspace untouched.
//
// Restoring into a fresh workspace (clock 0) reproduces every saved
// version — and therefore every fingerprint — byte-for-byte. Restoring
// over a live workspace renumbers the versions, in their saved order, to
// the ones just past its clock, so fingerprint-keyed caches can never
// serve results computed against pre-restore objects. (Shifting each by
// the whole clock would double the clock on every restore of the
// workspace's own snapshot and wrap it after 64.)
func (w *Workspace) Restore(in io.Reader) error {
	clock, objs, err := snapshot.Read(in)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	base, renumber := w.clock, func(v uint64) uint64 { return v }
	if base > 0 {
		vers := make([]uint64, len(objs))
		for i, so := range objs {
			vers[i] = so.Version
		}
		slices.Sort(vers)
		renumber = func(v uint64) uint64 {
			i, _ := slices.BinarySearch(vers, v)
			return base + 1 + uint64(i)
		}
		clock = uint64(len(objs))
	}
	w.objs = make(map[string]Object, len(objs))
	w.prov = make(map[string]string, len(objs))
	w.ver = make(map[string]uint64, len(objs))
	w.order = make([]string, 0, len(objs))
	maxVer := clock
	for _, so := range objs {
		w.objs[so.Name] = Object{
			Table:  so.Table,
			View:   so.View,
			UView:  so.UView,
			Scores: so.Scores,
		}
		w.prov[so.Name] = so.Provenance
		w.ver[so.Name] = renumber(so.Version)
		w.order = append(w.order, so.Name)
		maxVer = max(maxVer, w.ver[so.Name]-base)
	}
	w.clock = base + maxVer
	// Every binding was replaced wholesale; no pre-restore index can ever be
	// asked for again, so drop them all — and the pending delta logs with
	// them, since their versions point at replaced objects.
	w.indexes.Clear()
	clear(w.deltas)
	return nil
}

// Digest returns a content fingerprint of the entire workspace: the xhash
// checksum of its canonical snapshot encoding, rendered as 16 hex digits.
// The encoding is deterministic and restore into a fresh workspace
// reproduces it byte for byte (TestSnapshotDigestSurvivesRestore), so two
// workspaces digest equally exactly when they hold the same objects at the
// same versions with the same provenance — the property the cluster tier's
// fingerprint-verified snapshot shipping checks after every replica
// restore. Per-binding name#version fingerprints (Fingerprint) tell cache
// entries apart cheaply; the digest is the content-level complement that
// catches a replica whose bytes diverged even though its version numbers
// agree. Like Snapshot, it refuses workspaces holding mapped bindings.
func (w *Workspace) Digest() (string, error) {
	d := xhash.NewDigest()
	if err := w.Snapshot(d); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", d.Sum64()), nil
}

// SnapshotFile is Snapshot writing to the named file through
// frame.WriteFile, so a failed or interrupted snapshot never destroys a
// previous good snapshot at the same path.
func (w *Workspace) SnapshotFile(path string) error {
	return frame.WriteFile(path, w.Snapshot)
}

// RestoreFile is Restore reading from the named file.
func (w *Workspace) RestoreFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return w.Restore(f)
}
