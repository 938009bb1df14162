// Package mfs implements the file server: a MINIX-style on-disk file
// system (superblock, inode/zone bitmaps, inode table with direct,
// indirect and double-indirect zones, hierarchical directories) served
// over the block-driver protocol, with a block cache.
//
// Its recovery role is paper §6.2: disk block I/O is idempotent, so when
// the disk driver dies mid-request — the kernel aborts the rendezvous —
// the file server marks the request pending, blocks until the data store
// announces the restarted driver's new endpoint, reopens its minors, and
// reissues the failed operations. Applications never observe the crash.
// Recovery-specific lines are marked "// [recovery]" for cmd/locstats.
package mfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"resilientos/internal/hw"
)

// On-disk layout constants.
const (
	// BlockSize is the file system block (= zone) size in bytes.
	BlockSize = 4096
	// SectorsPerBlock ties the FS block to disk sectors.
	SectorsPerBlock = BlockSize / hw.SectorSize
	// Magic identifies a formatted volume.
	Magic = 0x52465331 // "RFS1"
	// InodeSize is the on-disk inode record size.
	InodeSize = 64
	// InodesPerBlock derives from the sizes above.
	InodesPerBlock = BlockSize / InodeSize
	// DirentSize is the on-disk directory entry size.
	DirentSize = 64
	// NameMax is the longest file name.
	NameMax = DirentSize - 4 - 1
	// NDirect is the number of direct zones per inode.
	NDirect = 10
	// ZonesPerBlock is the fan-out of an indirect block.
	ZonesPerBlock = BlockSize / 4
	// RootIno is the root directory's inode number.
	RootIno = 1
)

// Inode modes (0 marks a free inode).
const (
	ModeFile uint32 = 1
	ModeDir  uint32 = 2
)

// MaxFileSize is the largest representable file.
const MaxFileSize = int64(NDirect+ZonesPerBlock+ZonesPerBlock*ZonesPerBlock) * BlockSize

// Superblock is block 0 of the volume.
type Superblock struct {
	Magic      uint32
	NInodes    uint32
	NZones     uint32 // total zones (= FS blocks) on the volume
	ImapBlocks uint32
	ZmapBlocks uint32
	ITblBlocks uint32
	FirstData  uint32 // first data zone
}

func (sb *Superblock) encode() []byte {
	b := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(b[0:], sb.Magic)
	binary.LittleEndian.PutUint32(b[4:], sb.NInodes)
	binary.LittleEndian.PutUint32(b[8:], sb.NZones)
	binary.LittleEndian.PutUint32(b[12:], sb.ImapBlocks)
	binary.LittleEndian.PutUint32(b[16:], sb.ZmapBlocks)
	binary.LittleEndian.PutUint32(b[20:], sb.ITblBlocks)
	binary.LittleEndian.PutUint32(b[24:], sb.FirstData)
	return b
}

func decodeSuperblock(b []byte) (*Superblock, error) {
	if len(b) < 28 {
		return nil, errors.New("mfs: short superblock")
	}
	sb := &Superblock{
		Magic:      binary.LittleEndian.Uint32(b[0:]),
		NInodes:    binary.LittleEndian.Uint32(b[4:]),
		NZones:     binary.LittleEndian.Uint32(b[8:]),
		ImapBlocks: binary.LittleEndian.Uint32(b[12:]),
		ZmapBlocks: binary.LittleEndian.Uint32(b[16:]),
		ITblBlocks: binary.LittleEndian.Uint32(b[20:]),
		FirstData:  binary.LittleEndian.Uint32(b[24:]),
	}
	if sb.Magic != Magic {
		return nil, fmt.Errorf("mfs: bad magic %#x", sb.Magic)
	}
	return sb, nil
}

// Block indexes of the fixed regions.
func (sb *Superblock) imapStart() uint32 { return 1 }
func (sb *Superblock) zmapStart() uint32 { return 1 + sb.ImapBlocks }
func (sb *Superblock) itblStart() uint32 { return 1 + sb.ImapBlocks + sb.ZmapBlocks }

// inode is the in-memory form of an on-disk inode.
type inode struct {
	Mode     uint32
	Size     int64
	Zones    [NDirect]uint32
	Indirect uint32
	DblInd   uint32
}

func (in *inode) encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:], in.Mode)
	binary.LittleEndian.PutUint64(dst[4:], uint64(in.Size))
	for i := 0; i < NDirect; i++ {
		binary.LittleEndian.PutUint32(dst[12+4*i:], in.Zones[i])
	}
	binary.LittleEndian.PutUint32(dst[12+4*NDirect:], in.Indirect)
	binary.LittleEndian.PutUint32(dst[16+4*NDirect:], in.DblInd)
}

func decodeInode(src []byte) inode {
	var in inode
	in.Mode = binary.LittleEndian.Uint32(src[0:])
	in.Size = int64(binary.LittleEndian.Uint64(src[4:]))
	for i := 0; i < NDirect; i++ {
		in.Zones[i] = binary.LittleEndian.Uint32(src[12+4*i:])
	}
	in.Indirect = binary.LittleEndian.Uint32(src[12+4*NDirect:])
	in.DblInd = binary.LittleEndian.Uint32(src[16+4*NDirect:])
	return in
}

// dirent is a directory entry: inode number + NUL-terminated name.
type dirent struct {
	Ino  uint32
	Name string
}

func encodeDirent(d dirent, dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:], d.Ino)
	n := copy(dst[4:4+NameMax], d.Name)
	for i := 4 + n; i < DirentSize; i++ {
		dst[i] = 0
	}
}

func decodeDirent(src []byte) dirent {
	d := dirent{Ino: binary.LittleEndian.Uint32(src[0:])}
	name := src[4:DirentSize]
	for i, c := range name {
		if c == 0 {
			name = name[:i]
			break
		}
	}
	d.Name = string(name)
	return d
}

// PreallocFile describes a file mkfs materializes by allocating zones
// without writing their data blocks: the file's content is whatever the
// disk already holds there (the generated pseudo-random sectors) — this is
// how the Fig. 8 "1-GB file filled with random data" exists without a
// gigabyte of host writes.
type PreallocFile struct {
	Name string
	Size int64
}

// volumeInodes is the inode count every volume is made with.
const volumeInodes = 4096

// Mkfs formats the disk in place (factory image: writes bypass the
// driver), with the prealloc files in its root directory. Returns the
// superblock.
func Mkfs(d *hw.Disk, prealloc []PreallocFile) (*Superblock, error) {
	nZones := uint32(d.Sectors() / SectorsPerBlock)
	if nZones < 64 {
		return nil, errors.New("mfs: disk too small")
	}
	sb := &Superblock{
		Magic:      Magic,
		NInodes:    volumeInodes,
		NZones:     nZones,
		ImapBlocks: (volumeInodes + BlockSize*8 - 1) / (BlockSize * 8),
		ZmapBlocks: (nZones + BlockSize*8 - 1) / (BlockSize * 8),
	}
	sb.ITblBlocks = (volumeInodes + InodesPerBlock - 1) / InodesPerBlock
	sb.FirstData = sb.itblStart() + sb.ITblBlocks

	w := &rawWriter{d: d}
	w.writeBlock(0, sb.encode())

	imap := newBitmapImage(int(sb.ImapBlocks))
	zmap := newBitmapImage(int(sb.ZmapBlocks))
	imap.set(0) // inode 0 is reserved
	imap.set(RootIno)
	for z := uint32(0); z < sb.FirstData; z++ {
		zmap.set(int(z)) // metadata zones are in use
	}

	itbl := make([]byte, int(sb.ITblBlocks)*BlockSize)
	nextZone := sb.FirstData
	nextIno := uint32(RootIno + 1)

	// Root directory: one zone.
	rootZone := nextZone
	nextZone++
	zmap.set(int(rootZone))
	root := inode{Mode: ModeDir, Size: 0}
	root.Zones[0] = rootZone
	rootBlock := make([]byte, BlockSize)
	rootEntries := 0

	for _, pf := range prealloc {
		if pf.Size > MaxFileSize {
			return nil, fmt.Errorf("mfs: %s exceeds max file size", pf.Name)
		}
		ino := nextIno
		nextIno++
		if ino >= volumeInodes {
			return nil, errors.New("mfs: out of inodes")
		}
		imap.set(int(ino))
		in := inode{Mode: ModeFile, Size: pf.Size}
		zones := (pf.Size + BlockSize - 1) / BlockSize
		// Direct zones.
		zi := int64(0)
		for ; zi < zones && zi < NDirect; zi++ {
			in.Zones[zi] = nextZone
			zmap.set(int(nextZone))
			nextZone++
		}
		// Single indirect.
		if zi < zones {
			indZone := nextZone
			nextZone++
			zmap.set(int(indZone))
			in.Indirect = indZone
			ind := make([]byte, BlockSize)
			for i := 0; zi < zones && i < ZonesPerBlock; i, zi = i+1, zi+1 {
				binary.LittleEndian.PutUint32(ind[4*i:], nextZone)
				zmap.set(int(nextZone))
				nextZone++
			}
			w.writeBlock(int64(indZone), ind)
		}
		// Double indirect.
		if zi < zones {
			dblZone := nextZone
			nextZone++
			zmap.set(int(dblZone))
			in.DblInd = dblZone
			dbl := make([]byte, BlockSize)
			for di := 0; zi < zones && di < ZonesPerBlock; di++ {
				indZone := nextZone
				nextZone++
				zmap.set(int(indZone))
				binary.LittleEndian.PutUint32(dbl[4*di:], indZone)
				ind := make([]byte, BlockSize)
				for i := 0; zi < zones && i < ZonesPerBlock; i, zi = i+1, zi+1 {
					binary.LittleEndian.PutUint32(ind[4*i:], nextZone)
					zmap.set(int(nextZone))
					nextZone++
				}
				w.writeBlock(int64(indZone), ind)
			}
			w.writeBlock(int64(dblZone), dbl)
		}
		if nextZone >= nZones {
			return nil, errors.New("mfs: out of zones")
		}
		in.encode(itbl[int(ino)*InodeSize:])
		encodeDirent(dirent{Ino: ino, Name: pf.Name}, rootBlock[rootEntries*DirentSize:])
		rootEntries++
		root.Size = int64(rootEntries * DirentSize)
	}

	root.encode(itbl[RootIno*InodeSize:])
	w.writeBlock(int64(rootZone), rootBlock)
	for i := uint32(0); i < sb.ImapBlocks; i++ {
		w.writeBlock(int64(sb.imapStart()+i), imap.block(int(i)))
	}
	for i := uint32(0); i < sb.ZmapBlocks; i++ {
		w.writeBlock(int64(sb.zmapStart()+i), zmap.block(int(i)))
	}
	for i := uint32(0); i < sb.ITblBlocks; i++ {
		w.writeBlock(int64(sb.itblStart()+i), itbl[int(i)*BlockSize:int(i+1)*BlockSize])
	}
	return sb, nil
}

// rawWriter writes FS blocks straight to the disk model (mkfs only).
type rawWriter struct{ d *hw.Disk }

func (w *rawWriter) writeBlock(blockNo int64, data []byte) {
	for s := 0; s < SectorsPerBlock; s++ {
		end := (s + 1) * hw.SectorSize
		if end > len(data) {
			end = len(data)
		}
		var sector []byte
		if s*hw.SectorSize < len(data) {
			sector = data[s*hw.SectorSize : end]
		}
		w.d.PokeSector(blockNo*SectorsPerBlock+int64(s), sector)
	}
}

// bitmapImage builds bitmap blocks during mkfs.
type bitmapImage struct{ bits []byte }

func newBitmapImage(blocks int) *bitmapImage {
	return &bitmapImage{bits: make([]byte, blocks*BlockSize)}
}

func (b *bitmapImage) set(i int) { b.bits[i/8] |= 1 << uint(i%8) }

func (b *bitmapImage) block(i int) []byte {
	return b.bits[i*BlockSize : (i+1)*BlockSize]
}
