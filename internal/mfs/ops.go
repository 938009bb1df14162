package mfs

import (
	"encoding/binary"
	"errors"
	"strings"

	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/proto"
)

// File-system operations: bitmaps, inodes, zone mapping, directories,
// and the request dispatcher. The server is stateless with respect to
// clients (handles are inode numbers; offsets are explicit), which keeps
// its own recovery story trivial.

var (
	errNoEnt   = errors.New("mfs: no such file")
	errExist   = errors.New("mfs: file exists")
	errNoSpace = errors.New("mfs: no space")
	errIsDir   = errors.New("mfs: is a directory")
	errNotDir  = errors.New("mfs: not a directory")
	errBadCall = errors.New("mfs: bad request")
)

func errCode(err error) int64 {
	switch {
	case err == nil:
		return proto.OK
	case errors.Is(err, errNoEnt):
		return proto.ErrNotFound
	case errors.Is(err, errExist):
		return proto.ErrExist
	case errors.Is(err, errNoSpace):
		return proto.ErrNoSpace
	case errors.Is(err, errIsDir), errors.Is(err, errNotDir), errors.Is(err, errBadCall):
		return proto.ErrBadCall
	default:
		return proto.ErrIO
	}
}

// fsOpName names a file-system request type for trace spans.
func fsOpName(typ int32) string {
	switch typ {
	case proto.FSOpen:
		return "open"
	case proto.FSCreate:
		return "create"
	case proto.FSRead:
		return "read"
	case proto.FSWrite:
		return "write"
	default:
		return "badcall"
	}
}

// serve dispatches one file-system request and replies. The whole request
// runs as a span under the caller's context, so block-driver calls (and
// reissues after a driver crash) nest under the user-visible operation.
func (s *Server) serve(m kernel.Message) {
	sc := s.ctx.BeginWork("fs."+fsOpName(m.Type), m.Trace)
	status := s.serveInner(m, sc)
	s.ctx.EndWork(sc, status)
}

func (s *Server) serveInner(m kernel.Message, sc obs.SpanContext) int64 {
	if s.sb == nil {
		// Not mounted yet (driver still coming up at boot): the volume
		// appears shortly; make the caller retry.
		if !s.driverUp {
			s.awaitDriver()
		}
		s.mount()
		if s.sb == nil {
			_ = s.ctx.Send(m.Source, kernel.Message{Type: proto.FSReply, Arg1: proto.ErrAgain, Trace: sc})
			return 1
		}
	}
	reply := kernel.Message{Type: proto.FSReply, Trace: sc}
	switch m.Type {
	case proto.FSOpen:
		ino, in, err := s.lookupPath(m.Name)
		if err != nil {
			reply.Arg1 = errCode(err)
		} else {
			reply.Arg1 = int64(ino)
			reply.Arg2 = in.Size
			if in.Mode == ModeDir {
				reply.Arg3 = 1
			}
		}
	case proto.FSCreate:
		ino, err := s.create(m.Name)
		if err != nil {
			reply.Arg1 = errCode(err)
		} else {
			reply.Arg1 = int64(ino)
		}
	case proto.FSRead:
		data, err := s.readFile(uint32(m.Arg1), m.Arg3, int(m.Arg2))
		if err != nil {
			reply.Arg1 = errCode(err)
		} else {
			reply.Arg1 = int64(len(data))
			reply.Payload = data
		}
	case proto.FSWrite:
		n, err := s.writeFile(uint32(m.Arg1), m.Arg3, m.Payload)
		if err != nil {
			reply.Arg1 = errCode(err)
		} else {
			reply.Arg1 = int64(n)
		}
	default:
		reply.Arg1 = proto.ErrBadCall
	}
	_ = s.ctx.Send(m.Source, reply)
	if reply.Arg1 < 0 {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------
// Inodes

func (s *Server) readInode(ino uint32) (inode, error) {
	if ino == 0 || ino >= s.sb.NInodes {
		return inode{}, errBadCall
	}
	blockNo := int64(s.sb.itblStart() + ino/InodesPerBlock)
	blk, err := s.readBlock(blockNo)
	if err != nil {
		return inode{}, err
	}
	return decodeInode(blk[(ino%InodesPerBlock)*InodeSize:]), nil
}

func (s *Server) writeInode(ino uint32, in inode) error {
	blockNo := int64(s.sb.itblStart() + ino/InodesPerBlock)
	blk, err := s.readBlock(blockNo)
	if err != nil {
		return err
	}
	cp := make([]byte, BlockSize)
	copy(cp, blk)
	in.encode(cp[(ino%InodesPerBlock)*InodeSize:])
	return s.writeBlock(blockNo, cp)
}

// ---------------------------------------------------------------------
// Bitmaps

// allocFromBitmap finds and sets a clear bit in the bitmap region
// starting at block start, spanning blocks, with a cap of limit bits.
func (s *Server) allocFromBitmap(start, blocks, limit uint32) (uint32, error) {
	for b := uint32(0); b < blocks; b++ {
		blk, err := s.readBlock(int64(start + b))
		if err != nil {
			return 0, err
		}
		for i, by := range blk {
			if by == 0xFF {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				idx := b*BlockSize*8 + uint32(i*8+bit)
				if idx >= limit {
					return 0, errNoSpace
				}
				if by&(1<<uint(bit)) == 0 {
					cp := make([]byte, BlockSize)
					copy(cp, blk)
					cp[i] |= 1 << uint(bit)
					if err := s.writeBlock(int64(start+b), cp); err != nil {
						return 0, err
					}
					return idx, nil
				}
			}
		}
	}
	return 0, errNoSpace
}

func (s *Server) allocInode() (uint32, error) {
	return s.allocFromBitmap(s.sb.imapStart(), s.sb.ImapBlocks, s.sb.NInodes)
}

func (s *Server) allocZone() (uint32, error) {
	z, err := s.allocFromBitmap(s.sb.zmapStart(), s.sb.ZmapBlocks, s.sb.NZones)
	if err != nil {
		return 0, err
	}
	// Fresh zones read as zeros.
	if err := s.writeBlock(int64(z), make([]byte, BlockSize)); err != nil {
		return 0, err
	}
	return z, nil
}

// ---------------------------------------------------------------------
// Zone mapping

// bmap maps a file zone index to a disk zone; with alloc it grows the
// file, allocating indirect blocks as needed.
func (s *Server) bmap(in *inode, zi int64, alloc bool) (uint32, error) {
	if zi < NDirect {
		z := in.Zones[zi]
		if z == 0 && alloc {
			nz, err := s.allocZone()
			if err != nil {
				return 0, err
			}
			in.Zones[zi] = nz
			return nz, nil
		}
		return z, nil
	}
	zi -= NDirect
	if zi < ZonesPerBlock {
		return s.mapThroughIndirect(&in.Indirect, zi, alloc)
	}
	zi -= ZonesPerBlock
	if zi < int64(ZonesPerBlock)*ZonesPerBlock {
		// Double indirect: first level picks the indirect block.
		if in.DblInd == 0 {
			if !alloc {
				return 0, nil
			}
			nz, err := s.allocZone()
			if err != nil {
				return 0, err
			}
			in.DblInd = nz
		}
		di := zi / ZonesPerBlock
		blk, err := s.readBlock(int64(in.DblInd))
		if err != nil {
			return 0, err
		}
		ind := binary.LittleEndian.Uint32(blk[4*di:])
		if ind == 0 {
			if !alloc {
				return 0, nil
			}
			nz, err := s.allocZone()
			if err != nil {
				return 0, err
			}
			ind = nz
			cp := make([]byte, BlockSize)
			copy(cp, blk)
			binary.LittleEndian.PutUint32(cp[4*di:], ind)
			if err := s.writeBlock(int64(in.DblInd), cp); err != nil {
				return 0, err
			}
		}
		return s.mapThroughIndirect(&ind, zi%ZonesPerBlock, alloc)
	}
	return 0, errNoSpace
}

// mapThroughIndirect resolves one level of indirection rooted at *root.
func (s *Server) mapThroughIndirect(root *uint32, idx int64, alloc bool) (uint32, error) {
	if *root == 0 {
		if !alloc {
			return 0, nil
		}
		nz, err := s.allocZone()
		if err != nil {
			return 0, err
		}
		*root = nz
	}
	blk, err := s.readBlock(int64(*root))
	if err != nil {
		return 0, err
	}
	z := binary.LittleEndian.Uint32(blk[4*idx:])
	if z == 0 && alloc {
		nz, err := s.allocZone()
		if err != nil {
			return 0, err
		}
		z = nz
		cp := make([]byte, BlockSize)
		copy(cp, blk)
		binary.LittleEndian.PutUint32(cp[4*idx:], z)
		if err := s.writeBlock(int64(*root), cp); err != nil {
			return 0, err
		}
	}
	return z, nil
}

// ---------------------------------------------------------------------
// File data

// readFile reads up to n bytes at off, coalescing contiguous zone runs
// into single driver transfers. The result is a reply buffer from the
// system's free list; whoever the reply reaches last puts it back. A run
// of whole blocks is read straight into it (the driver copies through the
// grant); a run entered or left mid-block goes through the edge scratch.
func (s *Server) readFile(ino uint32, off int64, n int) ([]byte, error) {
	in, err := s.readInode(ino)
	if err != nil {
		return nil, err
	}
	if in.Mode != ModeFile {
		return nil, errIsDir
	}
	if off >= in.Size {
		return nil, nil // EOF
	}
	if int64(n) > in.Size-off {
		n = int(in.Size - off)
	}
	out := s.ctx.Bufs().Get(n)
	for done := 0; done < n; {
		zi := (off + int64(done)) / BlockSize
		inblk := (off + int64(done)) % BlockSize
		// Find the contiguous disk-zone run starting here.
		first, err := s.bmap(&in, zi, false)
		if err != nil {
			return nil, err
		}
		if first == 0 {
			// Sparse hole: zeros.
			take := min(BlockSize-int(inblk), n-done)
			clear(out[done : done+take])
			done += take
			continue
		}
		run := int64(1)
		need := (int64(n-done) + inblk + BlockSize - 1) / BlockSize
		for run < need {
			z, err := s.bmap(&in, zi+run, false)
			if err != nil {
				return nil, err
			}
			if z != uint32(int64(first)+run) {
				break
			}
			run++
		}
		take := min(int(run*BlockSize-inblk), n-done)
		if inblk == 0 && int64(take) == run*BlockSize {
			err = s.readZones(int64(first), run, out[done:done+take])
		} else {
			if int64(cap(s.edge)) < run*BlockSize {
				s.edge = make([]byte, run*BlockSize)
			}
			edge := s.edge[:run*BlockSize]
			if err = s.readZones(int64(first), run, edge); err == nil {
				copy(out[done:done+take], edge[inblk:])
			}
		}
		if err != nil {
			return nil, err
		}
		done += take
	}
	return out, nil
}

// writeFile writes data at off, growing the file as needed.
func (s *Server) writeFile(ino uint32, off int64, data []byte) (int, error) {
	in, err := s.readInode(ino)
	if err != nil {
		return 0, err
	}
	if in.Mode != ModeFile {
		return 0, errIsDir
	}
	written := 0
	for written < len(data) {
		pos := off + int64(written)
		zi := pos / BlockSize
		inblk := pos % BlockSize
		z, err := s.bmap(&in, zi, true)
		if err != nil {
			return written, err
		}
		take := BlockSize - int(inblk)
		if take > len(data)-written {
			take = len(data) - written
		}
		if inblk == 0 && take == BlockSize {
			if err := s.writeZones(int64(z), 1, data[written:written+BlockSize]); err != nil {
				return written, err
			}
		} else {
			blk, err := s.readBlock(int64(z))
			if err != nil {
				return written, err
			}
			cp := make([]byte, BlockSize)
			copy(cp, blk)
			copy(cp[inblk:], data[written:written+take])
			if err := s.writeBlock(int64(z), cp); err != nil {
				return written, err
			}
		}
		written += take
	}
	if off+int64(written) > in.Size {
		in.Size = off + int64(written)
	}
	if err := s.writeInode(ino, in); err != nil {
		return written, err
	}
	return written, nil
}

// ---------------------------------------------------------------------
// Directories and paths

// splitPath normalizes "/a/b/c" into components.
func splitPath(path string) []string {
	var comps []string
	for _, c := range strings.Split(path, "/") {
		if c != "" && c != "." {
			comps = append(comps, c)
		}
	}
	return comps
}

// lookupPath resolves a path to (ino, inode).
func (s *Server) lookupPath(path string) (uint32, inode, error) {
	ino := uint32(RootIno)
	in, err := s.readInode(ino)
	if err != nil {
		return 0, inode{}, err
	}
	for _, comp := range splitPath(path) {
		if in.Mode != ModeDir {
			return 0, inode{}, errNotDir
		}
		next, err := s.dirLookup(&in, comp)
		if err != nil {
			return 0, inode{}, err
		}
		ino = next
		in, err = s.readInode(ino)
		if err != nil {
			return 0, inode{}, err
		}
	}
	return ino, in, nil
}

// dirLookup finds a name in a directory inode.
func (s *Server) dirLookup(dir *inode, name string) (uint32, error) {
	ents, err := s.readDirents(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		if e.Ino != 0 && e.Name == name {
			return e.Ino, nil
		}
	}
	return 0, errNoEnt
}

func (s *Server) readDirents(dir *inode) ([]dirent, error) {
	var ents []dirent
	for off := int64(0); off < dir.Size; off += BlockSize {
		zi := off / BlockSize
		z, err := s.bmap(dir, zi, false)
		if err != nil {
			return nil, err
		}
		if z == 0 {
			continue
		}
		blk, err := s.readBlock(int64(z))
		if err != nil {
			return nil, err
		}
		limit := dir.Size - off
		if limit > BlockSize {
			limit = BlockSize
		}
		for p := int64(0); p+DirentSize <= limit; p += DirentSize {
			ents = append(ents, decodeDirent(blk[p:]))
		}
	}
	return ents, nil
}

// create makes a file at path.
func (s *Server) create(path string) (uint32, error) {
	comps := splitPath(path)
	if len(comps) == 0 {
		return 0, errExist
	}
	name := comps[len(comps)-1]
	if len(name) > NameMax {
		return 0, errBadCall
	}
	dirPath := "/" + strings.Join(comps[:len(comps)-1], "/")
	dirIno, dir, err := s.lookupPath(dirPath)
	if err != nil {
		return 0, err
	}
	if dir.Mode != ModeDir {
		return 0, errNotDir
	}
	if _, err := s.dirLookup(&dir, name); err == nil {
		return 0, errExist
	}
	ino, err := s.allocInode()
	if err != nil {
		return 0, err
	}
	if err := s.writeInode(ino, inode{Mode: ModeFile}); err != nil {
		return 0, err
	}
	if err := s.dirAdd(dirIno, &dir, dirent{Ino: ino, Name: name}); err != nil {
		return 0, err
	}
	return ino, nil
}

// dirAdd appends an entry. Nothing clears an entry, so a directory has
// no free slot to reuse.
func (s *Server) dirAdd(dirIno uint32, dir *inode, e dirent) error {
	off := dir.Size
	z, err := s.bmap(dir, off/BlockSize, true)
	if err != nil {
		return err
	}
	blk, err := s.readBlock(int64(z))
	if err != nil {
		return err
	}
	cp := make([]byte, BlockSize)
	copy(cp, blk)
	encodeDirent(e, cp[off%BlockSize:])
	if err := s.writeBlock(int64(z), cp); err != nil {
		return err
	}
	dir.Size = off + DirentSize
	return s.writeInode(dirIno, *dir)
}
