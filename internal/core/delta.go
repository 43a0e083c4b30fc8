package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Delta snapshots ship an index update as the subset of snapshot sections an
// ApplyUpdates chain actually rewrote, instead of a full file. A delta is
// valid against exactly one base snapshot: the v4 file whose generation
// equals the delta's base generation (and whose lineage matches). Applying it
// — by zero-copy dual mapping (internal/snapshot.OpenDelta) or by splicing a
// full file (SpliceDelta) — reproduces the successor snapshot bit for bit,
// because every shipped section is written by the same writeSection code path
// a full Save uses.
//
// Delta file layout (all little-endian):
//
//	header   64 bytes: 8 u64 slots — magic "PRSD", delta format version (1),
//	         base generation, shipped-section bitmask, file size, 3 reserved
//	prefix   the complete 408-byte v4 prefix (header, section table,
//	         generation block) of the successor snapshot
//	payload  the shipped sections in section order, each starting on an
//	         8-byte boundary
//	trailer  8 bytes: CRC-32C of everything between the 64-byte header and
//	         the trailer (embedded prefix included)
const (
	deltaMagic       = 0x44535250 // "PRSD"
	deltaVersion1    = 1
	deltaHeaderBytes = 64
	deltaMinBytes    = deltaHeaderBytes + snapshotSectionsStartV4 + snapshotTrailerBytes
)

// DeltaLayout is the decoded header of a delta snapshot file: which sections
// it ships, where they sit in the delta file, and the full layout of the
// successor snapshot the delta reproduces.
type DeltaLayout struct {
	BaseGeneration uint64
	ShippedMask    uint64
	FileSize       uint64
	// Layout is the successor snapshot's complete layout; its section offsets
	// refer to the spliced full file, not to the delta file.
	Layout *SnapshotLayout
	// Shipped locates each shipped section inside the delta file. Sections
	// not in ShippedMask have zero extents.
	Shipped [snapshotSectionCount]Section
}

// Ships reports whether the delta carries section i's bytes (as opposed to
// reusing the base snapshot's).
func (d *DeltaLayout) Ships(i int) bool { return d.ShippedMask&(1<<uint(i)) != 0 }

// deltaShippedMask computes which sections a delta from base must ship —
// exactly those whose generation stamp is newer than the base snapshot's
// generation — and validates that the two generation blocks describe the same
// lineage with the expected stamps everywhere else.
func deltaShippedMask(gens, base SnapshotGens) (uint64, error) {
	if gens.Lineage != base.Lineage {
		return 0, fmt.Errorf("core: delta lineage %#x does not match base lineage %#x", gens.Lineage, base.Lineage)
	}
	if gens.Generation <= base.Generation {
		return 0, fmt.Errorf("core: delta generation %d is not newer than base generation %d",
			gens.Generation, base.Generation)
	}
	var mask uint64
	for i, gen := range gens.Sections {
		if gen > base.Generation {
			mask |= 1 << uint(i)
		} else if gen != base.Sections[i] {
			return 0, fmt.Errorf("core: section %d generation %d disagrees with base's %d",
				i, gen, base.Sections[i])
		}
	}
	return mask, nil
}

// DeltaSize returns the size in bytes of the delta file WriteDelta would
// produce against the given base, without writing it. Callers use it to fall
// back to a full rewrite when the delta would not actually save much.
func (idx *Index) DeltaSize(base SnapshotGens) (uint64, error) {
	if !idx.g.OutSortedByInDegree() {
		idx.g.SortOutByInDegree()
	}
	idx.ensureGens()
	mask, err := deltaShippedMask(idx.gens, base)
	if err != nil {
		return 0, err
	}
	l := idx.snapshotLayout()
	size := uint64(deltaHeaderBytes + snapshotSectionsStartV4)
	for i := range l.Sections {
		if mask&(1<<uint(i)) != 0 {
			size = align8(size + l.Sections[i].Len)
		}
	}
	return size + snapshotTrailerBytes, nil
}

// WriteDelta writes a delta snapshot carrying this index's state as an update
// to a base snapshot with the given generation block (typically the Gens of
// the index the serving tier currently has on disk). It fails when the two
// are not the same lineage or the base is not strictly older.
func (idx *Index) WriteDelta(w io.Writer, base SnapshotGens) error {
	if !idx.g.OutSortedByInDegree() {
		idx.g.SortOutByInDegree()
	}
	idx.ensureGens()
	mask, err := deltaShippedMask(idx.gens, base)
	if err != nil {
		return err
	}
	size, err := idx.DeltaSize(base)
	if err != nil {
		return err
	}
	l := idx.snapshotLayout()

	var head [deltaHeaderBytes]byte
	for i, v := range []uint64{deltaMagic, deltaVersion1, base.Generation, mask, size} {
		binary.LittleEndian.PutUint64(head[i*8:], v)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.Write(head[:]); err != nil {
		return fmt.Errorf("core: saving delta: %w", err)
	}
	enc := newSectionEncoder(bw)
	enc.raw(encodeSnapshotPrefix(l))
	for i := 0; i < snapshotSectionCount; i++ {
		if mask&(1<<uint(i)) != 0 {
			idx.writeSection(enc, i)
		}
	}
	if err := finishSave(bw, enc); err != nil {
		return fmt.Errorf("core: saving delta: %w", err)
	}
	return nil
}

// WriteDeltaFile writes the delta to the given path.
func (idx *Index) WriteDeltaFile(path string, base SnapshotGens) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := idx.WriteDelta(f, base); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseDeltaLayout decodes and structurally validates a complete in-memory
// (typically mmap'd) delta file: header, embedded successor prefix, and
// shipped-section extents. Call VerifyChecksum to validate the payload and
// CheckBase to validate the delta against the base snapshot it will be
// applied to.
func ParseDeltaLayout(data []byte) (*DeltaLayout, error) {
	if len(data) < deltaMinBytes {
		return nil, fmt.Errorf("core: delta is %d bytes, below the minimum %d", len(data), deltaMinBytes)
	}
	slot := func(i int) uint64 { return binary.LittleEndian.Uint64(data[i*8:]) }
	if slot(0) != deltaMagic {
		return nil, fmt.Errorf("core: not a PRSim delta file (magic %#x)", slot(0))
	}
	if v := slot(1); v != deltaVersion1 {
		return nil, fmt.Errorf("core: unsupported delta format version %d", v)
	}
	d := &DeltaLayout{
		BaseGeneration: slot(2),
		ShippedMask:    slot(3),
		FileSize:       slot(4),
	}
	if d.FileSize != uint64(len(data)) {
		return nil, fmt.Errorf("core: delta header says %d bytes but file has %d", d.FileSize, len(data))
	}
	if d.ShippedMask>>snapshotSectionCount != 0 {
		return nil, fmt.Errorf("core: delta ships unknown sections (mask %#x)", d.ShippedMask)
	}
	version, err := snapshotFileVersion(data[deltaHeaderBytes:])
	if err != nil {
		return nil, err
	}
	if version != indexVersionV4 {
		return nil, fmt.Errorf("core: delta embeds a v%d prefix, want v%d", version, indexVersionV4)
	}
	l, err := parseSnapshotPrefix(data[deltaHeaderBytes : deltaHeaderBytes+snapshotSectionsStartV4])
	if err != nil {
		return nil, err
	}
	d.Layout = l
	if d.BaseGeneration >= l.Gens.Generation {
		return nil, fmt.Errorf("core: delta base generation %d is not older than its target %d",
			d.BaseGeneration, l.Gens.Generation)
	}
	off := uint64(deltaHeaderBytes + snapshotSectionsStartV4)
	for i := 0; i < snapshotSectionCount; i++ {
		if shipped := l.Gens.Sections[i] > d.BaseGeneration; shipped != d.Ships(i) {
			return nil, fmt.Errorf("core: delta shipped mask disagrees with section %d's generation stamp", i)
		}
		if d.Ships(i) {
			d.Shipped[i] = Section{Off: off, Len: l.Sections[i].Len}
			off = align8(off + l.Sections[i].Len)
		}
	}
	if d.FileSize != off+snapshotTrailerBytes {
		return nil, fmt.Errorf("core: delta file size %d does not match shipped sections (want %d)",
			d.FileSize, off+snapshotTrailerBytes)
	}
	return d, nil
}

// VerifyChecksum recomputes the CRC-32C of the delta payload (embedded prefix
// plus shipped sections) against the trailer. data must be the complete delta
// file.
func (d *DeltaLayout) VerifyChecksum(data []byte) error {
	if uint64(len(data)) != d.FileSize {
		return fmt.Errorf("core: delta is %d bytes but layout says %d", len(data), d.FileSize)
	}
	payload := data[deltaHeaderBytes : d.FileSize-snapshotTrailerBytes]
	want := binary.LittleEndian.Uint64(data[d.FileSize-snapshotTrailerBytes:])
	got := uint64(crc32.Checksum(payload, crcTable))
	if got != want {
		return fmt.Errorf("core: delta checksum mismatch: file says %#x, computed %#x", want, got)
	}
	return nil
}

// CheckBase validates that the delta applies to the given base snapshot: same
// lineage, base generation exactly the delta's base, and every unshipped
// section present in the base with the expected generation stamp and length.
func (d *DeltaLayout) CheckBase(base *SnapshotLayout) error {
	if !base.HasGens() {
		return fmt.Errorf("core: delta base is a v%d snapshot; deltas require a v%d base", base.Version, indexVersionV4)
	}
	if base.Gens.Lineage != d.Layout.Gens.Lineage {
		return fmt.Errorf("core: delta lineage %#x does not match base lineage %#x",
			d.Layout.Gens.Lineage, base.Gens.Lineage)
	}
	if base.Gens.Generation != d.BaseGeneration {
		return fmt.Errorf("core: delta applies to generation %d but base is generation %d",
			d.BaseGeneration, base.Gens.Generation)
	}
	for i := 0; i < snapshotSectionCount; i++ {
		if d.Ships(i) {
			continue
		}
		if base.Gens.Sections[i] != d.Layout.Gens.Sections[i] {
			return fmt.Errorf("core: unshipped section %d has base generation %d, delta expects %d",
				i, base.Gens.Sections[i], d.Layout.Gens.Sections[i])
		}
		if base.Sections[i].Len != d.Layout.Sections[i].Len {
			return fmt.Errorf("core: unshipped section %d is %d bytes in the base, delta expects %d",
				i, base.Sections[i].Len, d.Layout.Sections[i].Len)
		}
	}
	return nil
}

// SpliceDelta materializes the successor snapshot from a base snapshot and a
// delta, verifying both files' checksums (the output gets a freshly computed
// trailer, so input corruption must be caught here, not downstream). The
// result is byte-identical to what Save on the updated index would have
// written.
func SpliceDelta(base, delta []byte) ([]byte, error) {
	bl, err := ParseSnapshotLayout(base)
	if err != nil {
		return nil, err
	}
	d, err := ParseDeltaLayout(delta)
	if err != nil {
		return nil, err
	}
	if err := d.CheckBase(bl); err != nil {
		return nil, err
	}
	if err := bl.VerifyChecksum(base); err != nil {
		return nil, err
	}
	if err := d.VerifyChecksum(delta); err != nil {
		return nil, err
	}
	l := d.Layout
	out := make([]byte, l.FileSize)
	copy(out, delta[deltaHeaderBytes:deltaHeaderBytes+snapshotSectionsStartV4])
	for i := 0; i < snapshotSectionCount; i++ {
		src := base
		sec := bl.Sections[i]
		if d.Ships(i) {
			src, sec = delta, d.Shipped[i]
		}
		copy(out[l.Sections[i].Off:], src[sec.Off:sec.End()])
	}
	payload := out[snapshotSectionsStartV4 : l.FileSize-snapshotTrailerBytes]
	binary.LittleEndian.PutUint64(out[l.FileSize-snapshotTrailerBytes:],
		uint64(crc32.Checksum(payload, crcTable)))
	return out, nil
}
