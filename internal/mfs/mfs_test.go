package mfs

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"resilientos/internal/drivers/sata"
	"resilientos/internal/ds"
	"resilientos/internal/hw"
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

func TestSuperblockRoundtrip(t *testing.T) {
	sb := &Superblock{
		Magic: Magic, NInodes: 4096, NZones: 1 << 20,
		ImapBlocks: 1, ZmapBlocks: 32, ITblBlocks: 64, FirstData: 98,
	}
	dec, err := decodeSuperblock(sb.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *dec != *sb {
		t.Fatalf("roundtrip: %+v vs %+v", dec, sb)
	}
}

func TestSuperblockBadMagic(t *testing.T) {
	b := make([]byte, BlockSize)
	if _, err := decodeSuperblock(b); err == nil {
		t.Fatal("accepted zero magic")
	}
}

func TestInodeRoundtrip(t *testing.T) {
	f := func(mode uint32, size int64, z0, z5, ind, dbl uint32) bool {
		in := inode{Mode: mode, Size: size, Indirect: ind, DblInd: dbl}
		in.Zones[0], in.Zones[5] = z0, z5
		buf := make([]byte, InodeSize)
		in.encode(buf)
		return decodeInode(buf) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirentRoundtrip(t *testing.T) {
	buf := make([]byte, DirentSize)
	encodeDirent(dirent{Ino: 42, Name: "notes.txt"}, buf)
	d := decodeDirent(buf)
	if d.Ino != 42 || d.Name != "notes.txt" {
		t.Fatalf("got %+v", d)
	}
	// Max-length name.
	long := string(bytes.Repeat([]byte{'x'}, NameMax))
	encodeDirent(dirent{Ino: 1, Name: long}, buf)
	if got := decodeDirent(buf); got.Name != long {
		t.Fatalf("long name mangled: %d chars", len(got.Name))
	}
}

func TestSplitPath(t *testing.T) {
	cases := map[string][]string{
		"/":          nil,
		"":           nil,
		"/a":         {"a"},
		"/a/b/c":     {"a", "b", "c"},
		"a/b":        {"a", "b"},
		"//a//b/":    {"a", "b"},
		"/./a/./b/.": {"a", "b"},
	}
	for path, want := range cases {
		got := splitPath(path)
		if len(got) != len(want) {
			t.Errorf("splitPath(%q) = %v, want %v", path, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("splitPath(%q) = %v, want %v", path, got, want)
			}
		}
	}
}

func TestBlockCacheLRU(t *testing.T) {
	c := newBlockCache(2)
	c.put(1, []byte{1})
	c.put(2, []byte{2})
	c.get(1) // refresh 1
	c.put(3, []byte{3})
	if _, ok := c.get(2); ok {
		t.Fatal("LRU victim 2 still cached")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("recently used 1 evicted")
	}
	if _, ok := c.get(3); !ok {
		t.Fatal("new 3 missing")
	}
	c.drop(1)
	if _, ok := c.get(1); ok {
		t.Fatal("dropped block still cached")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestBlockCacheCopies(t *testing.T) {
	c := newBlockCache(4)
	data := []byte{1, 2, 3}
	c.put(1, data)
	data[0] = 99
	got, _ := c.get(1)
	if got[0] != 1 {
		t.Fatal("cache shares caller's slice")
	}
}

func TestMkfsLayout(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	disk := hw.NewDisk(env, k, hw.DiskConfig{Sectors: 1 << 16, Seed: 3})
	sb, err := Mkfs(disk, []PreallocFile{
		{Name: "big", Size: 5 << 20}, // needs indirect + double indirect? 5MB > 4.2MB direct+ind
		{Name: "small", Size: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Superblock must decode back from sector 0.
	raw := make([]byte, BlockSize)
	for s := 0; s < SectorsPerBlock; s++ {
		copy(raw[s*hw.SectorSize:], disk.PeekSector(int64(s)))
	}
	dec, err := decodeSuperblock(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dec.NZones != sb.NZones || dec.FirstData != sb.FirstData {
		t.Fatalf("on-disk superblock mismatch: %+v vs %+v", dec, sb)
	}
}

func TestMkfsTooSmall(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	disk := hw.NewDisk(env, k, hw.DiskConfig{Sectors: 64, Seed: 3})
	if _, err := Mkfs(disk, nil); err == nil {
		t.Fatal("mkfs on tiny disk succeeded")
	}
}

// fsRig boots kernel + DS + disk + SATA driver + MFS, with a fake "rs"
// process acting as publisher/supervisor.
type fsRig struct {
	env   *sim.Env
	k     *kernel.Kernel
	disk  *hw.Disk
	srv   *Server
	mfsEp kernel.Endpoint
	dsEp  kernel.Endpoint
	drv   kernel.Endpoint
}

func newFsRig(t *testing.T, prealloc []PreallocFile) *fsRig {
	t.Helper()
	env := sim.NewEnv(1)
	k := kernel.New(env)
	_, dsEp, err := ds.StartServer(k)
	if err != nil {
		t.Fatal(err)
	}
	disk := hw.NewDisk(env, k, hw.DiskConfig{Sectors: 1 << 18, Seed: 7})
	if _, err := Mkfs(disk, prealloc); err != nil {
		t.Fatal(err)
	}
	r := &fsRig{env: env, k: k, disk: disk, dsEp: dsEp}
	r.spawnDriver(t)
	r.srv = New(Config{DS: dsEp, DriverLabel: "disk.sata", Disk: Geometry{Sectors: disk.Sectors()}})
	mc, err := k.Spawn("mfs", kernel.Privileges{
		AllowAllIPC: true,
		Calls:       []kernel.Call{kernel.CallSafeCopy, kernel.CallAlarm},
		MayComplain: true,
	}, r.srv.Binary())
	if err != nil {
		t.Fatal(err)
	}
	r.mfsEp = mc.Endpoint()
	r.publish(t)
	return r
}

func (r *fsRig) spawnDriver(t *testing.T) {
	t.Helper()
	dc, err := r.k.Spawn("disk.sata", kernel.Privileges{
		AllowAllIPC: true,
		Calls:       []kernel.Call{kernel.CallDevIO, kernel.CallIRQCtl, kernel.CallSafeCopy},
		Ports:       []kernel.PortRange{r.disk.PortRange()},
		IRQs:        []int{r.disk.IRQ()},
	}, sata.Binary(sata.Config{Disk: r.disk}))
	if err != nil {
		t.Fatal(err)
	}
	r.drv = dc.Endpoint()
}

func (r *fsRig) publish(t *testing.T) {
	t.Helper()
	drv := r.drv
	if _, err := r.k.Spawn("rs", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		c.SendRec(r.dsEp, kernel.Message{Type: proto.DSPublish, Name: "disk.sata", Arg1: int64(drv)})
	}); err != nil {
		t.Fatal(err)
	}
}

// client runs body in an app process with FS access.
func (r *fsRig) client(t *testing.T, body func(c *kernel.Ctx)) {
	t.Helper()
	if _, err := r.k.Spawn("app", kernel.Privileges{AllowAllIPC: true}, body); err != nil {
		t.Fatal(err)
	}
}

// fsCall is a SendRec to MFS that retries transient ErrAgain.
func fsCall(t *testing.T, c *kernel.Ctx, ep kernel.Endpoint, m kernel.Message) kernel.Message {
	t.Helper()
	for {
		reply, err := c.SendRec(ep, m)
		if err != nil {
			t.Fatalf("mfs call %d: %v", m.Type, err)
		}
		if reply.Arg1 == proto.ErrAgain {
			c.Sleep(50 * time.Millisecond)
			continue
		}
		return reply
	}
}

func TestMFSCreateWriteRead(t *testing.T) {
	r := newFsRig(t, nil)
	done := false
	r.client(t, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		reply := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSCreate, Name: "/f"})
		if reply.Arg1 <= 0 {
			t.Errorf("create: %d", reply.Arg1)
			return
		}
		ino := reply.Arg1
		content := bytes.Repeat([]byte("filesystem "), 1000) // ~11KB: spans blocks
		reply = fsCall(t, c, r.mfsEp, kernel.Message{
			Type: proto.FSWrite, Arg1: ino, Arg3: 0, Payload: content,
		})
		if reply.Arg1 != int64(len(content)) {
			t.Errorf("write: %d", reply.Arg1)
			return
		}
		reply = fsCall(t, c, r.mfsEp, kernel.Message{
			Type: proto.FSRead, Arg1: ino, Arg2: int64(len(content)) + 100, Arg3: 0,
		})
		if !bytes.Equal(reply.Payload, content) {
			t.Error("read back mismatch")
			return
		}
		// Sparse read past EOF.
		reply = fsCall(t, c, r.mfsEp, kernel.Message{
			Type: proto.FSRead, Arg1: ino, Arg2: 100, Arg3: int64(len(content)) + 5,
		})
		if reply.Arg1 != 0 {
			t.Errorf("read past EOF returned %d", reply.Arg1)
		}
		done = true
	})
	r.env.Run(time.Minute)
	if !done {
		t.Fatal("client did not finish")
	}
}

// TestMFSDirectoriesAndUnlink checks what is left of directories: the
// root directory, which grows past its first block as files are created
// in it, refuses a name twice and resolves every name it holds. MFS no
// longer serves mkdir, readdir or unlink.
func TestMFSDirectoriesAndUnlink(t *testing.T) {
	r := newFsRig(t, nil)
	const n = BlockSize/DirentSize + 6 // the last entries land in a second block
	done := false
	r.client(t, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		inos := make([]int64, n)
		for i := range inos {
			re := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSCreate, Name: fmt.Sprintf("/f%d", i)})
			if re.Arg1 <= 0 {
				t.Errorf("create /f%d: %d", i, re.Arg1)
				return
			}
			inos[i] = re.Arg1
		}
		// A name is created once: the second create of it fails, in
		// either block of the directory.
		for _, name := range []string{"/f0", fmt.Sprintf("/f%d", n-1)} {
			if re := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSCreate, Name: name}); re.Arg1 != proto.ErrExist {
				t.Errorf("dup create %s: %d", name, re.Arg1)
			}
		}
		for i, ino := range inos {
			if re := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSOpen, Name: fmt.Sprintf("/f%d", i)}); re.Arg1 != ino || re.Arg3 != 0 {
				t.Errorf("open /f%d: ino %d dir %d, want ino %d file", i, re.Arg1, re.Arg3, ino)
			}
		}
		root := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSOpen, Name: "/"})
		if root.Arg1 != RootIno || root.Arg3 != 1 || root.Arg2 != n*DirentSize {
			t.Errorf("open /: ino %d dir %d size %d, want %d 1 %d", root.Arg1, root.Arg3, root.Arg2, RootIno, n*DirentSize)
		}
		if re := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSOpen, Name: "/missing"}); re.Arg1 != proto.ErrNotFound {
			t.Errorf("open missing: %d", re.Arg1)
		}
		// A file is not a directory, and a missing directory holds nothing.
		if re := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSCreate, Name: "/f0/x"}); re.Arg1 != proto.ErrBadCall {
			t.Errorf("create under a file: %d", re.Arg1)
		}
		if re := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSCreate, Name: "/missing/x"}); re.Arg1 != proto.ErrNotFound {
			t.Errorf("create under a missing directory: %d", re.Arg1)
		}
		done = true
	})
	r.env.Run(time.Minute)
	if !done {
		t.Fatal("client did not finish")
	}
}

func TestMFSPreallocContentMatchesDisk(t *testing.T) {
	r := newFsRig(t, []PreallocFile{{Name: "data", Size: 100 << 10}})
	done := false
	r.client(t, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		re := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSOpen, Name: "/data"})
		ino, size := re.Arg1, re.Arg2
		if size != 100<<10 {
			t.Errorf("size = %d", size)
			return
		}
		re = fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSRead, Arg1: ino, Arg2: BlockSize, Arg3: 0})
		// The first data zone of the file follows the root dir zone; its
		// content is the disk's generated sectors.
		// We just verify determinism: two reads agree.
		re2 := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSRead, Arg1: ino, Arg2: BlockSize, Arg3: 0})
		if !bytes.Equal(re.Payload, re2.Payload) {
			t.Error("re-read mismatch")
		}
		if len(re.Payload) != BlockSize {
			t.Errorf("short read: %d", len(re.Payload))
		}
		done = true
	})
	r.env.Run(time.Minute)
	if !done {
		t.Fatal("client did not finish")
	}
}

func TestMFSRecoversFromDriverDeath(t *testing.T) {
	r := newFsRig(t, []PreallocFile{{Name: "data", Size: 1 << 20}})
	var firstRead, secondRead []byte
	done := false
	r.client(t, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		re := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSOpen, Name: "/data"})
		ino := re.Arg1
		re = fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSRead, Arg1: ino, Arg2: 64 << 10, Arg3: 0})
		firstRead = re.Payload
		// Kill the driver; MFS must block and transparently retry once a
		// new instance is published.
		r.k.Kill(r.drv, kernel.SIGKILL)
		r.env.Schedule(100*time.Millisecond, func() {
			r.spawnDriver(t)
			r.publish(t)
		})
		re = fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSRead, Arg1: ino, Arg2: 64 << 10, Arg3: 0})
		secondRead = re.Payload
		done = true
	})
	r.env.Run(time.Minute)
	if !done {
		t.Fatal("client did not finish (MFS stuck after driver death?)")
	}
	if !bytes.Equal(firstRead, secondRead) {
		t.Fatal("data differs across driver recovery")
	}
	if r.srv.Stats().Recoveries == 0 && r.srv.Stats().Reissues == 0 {
		t.Fatalf("no recovery recorded: %+v", r.srv.Stats())
	}
}

func TestMFSComplainsAboutProtocolViolation(t *testing.T) {
	// A driver that replies with a malformed message type triggers the
	// complaint path (defect class 5).
	env := sim.NewEnv(1)
	k := kernel.New(env)
	_, dsEp, err := ds.StartServer(k)
	if err != nil {
		t.Fatal(err)
	}
	disk := hw.NewDisk(env, k, hw.DiskConfig{Sectors: 1 << 18, Seed: 7})
	if _, err := Mkfs(disk, nil); err != nil {
		t.Fatal(err)
	}
	// Misbehaving driver: acks opens, replies garbage to reads.
	evil, err := k.Spawn("disk.sata", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			switch m.Type {
			case proto.BdevOpen:
				c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: proto.OK})
			default:
				c.Send(m.Source, kernel.Message{Type: 9999}) // protocol violation
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{DS: dsEp, DriverLabel: "disk.sata", Disk: Geometry{Sectors: disk.Sectors()}})
	if _, err := k.Spawn("mfs", kernel.Privileges{
		AllowAllIPC: true,
		Calls:       []kernel.Call{kernel.CallSafeCopy},
		MayComplain: true,
	}, srv.Binary()); err != nil {
		t.Fatal(err)
	}
	var complaints []string
	k.Spawn("rs", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "disk.sata", Arg1: int64(evil.Endpoint())})
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.RSComplain {
				complaints = append(complaints, m.Name)
				c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: proto.OK})
				// Kill the accused, like the real RS does.
				c.Kill(evil.Endpoint(), kernel.SIGKILL)
				return
			}
		}
	})
	env.Run(30 * time.Second)
	if len(complaints) == 0 || complaints[0] != "disk.sata" {
		t.Fatalf("complaints = %v", complaints)
	}
}

// TestMFSAlwaysErrIODriverFailsTheRequest: a driver that answers every
// transfer with ErrIO, in zero virtual time, cannot hold MFS in a reissue
// loop. The first ErrIO is reissued, the second is a complaint that gets
// the driver restarted, and the fresh instance's ErrIO fails the request:
// one complaint, one restart and an error for the client. The fake stops
// the run after 100 replies, so a reissue loop fails the test at once.
func TestMFSAlwaysErrIODriverFailsTheRequest(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	_, dsEp, err := ds.StartServer(k)
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	spawnDriver := func() kernel.Endpoint {
		dc, err := k.Spawn("disk.sata", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
			for {
				m, err := c.Receive(kernel.Any)
				if err != nil {
					return
				}
				reply := kernel.Message{Type: proto.BdevReply, Arg1: proto.ErrIO}
				if m.Type == proto.BdevOpen {
					reply.Arg1 = proto.OK
				} else if replies++; replies == 100 {
					env.Stop()
				}
				c.Send(m.Source, reply)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return dc.Endpoint()
	}
	srv := New(Config{DS: dsEp, DriverLabel: "disk.sata", Disk: Geometry{Sectors: 1 << 18}})
	mc, err := k.Spawn("mfs", kernel.Privileges{
		AllowAllIPC: true,
		Calls:       []kernel.Call{kernel.CallSafeCopy},
		MayComplain: true,
	}, srv.Binary())
	if err != nil {
		t.Fatal(err)
	}
	// The client asks before any driver is published, so the mount that
	// meets the failing driver is the one its request triggers.
	var reply kernel.Message
	done := false
	k.Spawn("app", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		c.Sleep(100 * time.Millisecond)
		reply, err = c.SendRec(mc.Endpoint(), kernel.Message{Type: proto.FSOpen, Name: "/f"})
		done = err == nil
	})
	var complaints, restarts int
	k.Spawn("rs", kernel.Privileges{AllowAllIPC: true, Calls: []kernel.Call{kernel.CallKill}}, func(c *kernel.Ctx) {
		publish := func() kernel.Endpoint {
			ep := spawnDriver()
			c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "disk.sata", Arg1: int64(ep)})
			return ep
		}
		c.Sleep(time.Second)
		drv := publish()
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.RSComplain && m.Name == "disk.sata" {
				complaints++
				c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: proto.OK})
				c.Kill(drv, kernel.SIGKILL)
				restarts++
				drv = publish()
			}
		}
	})
	env.Run(time.Minute)
	if !done || reply.Arg1 >= 0 {
		t.Fatalf("client: done=%v reply=%+v, want an error reply (%d driver replies)", done, reply, replies)
	}
	if complaints != 1 || restarts != 1 || srv.Stats().Complaints != 1 {
		t.Fatalf("%d complaints (MFS counts %d), %d restarts; want one each", complaints, srv.Stats().Complaints, restarts)
	}
	if replies != 3 {
		t.Errorf("the driver answered %d transfers, want 3: reissue, complain, fail", replies)
	}
}

// Property: random write/read sequences through MFS behave like an
// in-memory reference file.
func TestMFSMatchesReferenceModel(t *testing.T) {
	// Replies are recycled, poisoned, as a reader would: the next read is
	// then assembled in a dirty buffer, so holes must be zeroed, not found
	// zero.
	poison(t)
	r := newFsRig(t, nil)
	done := false
	r.client(t, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		re := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSCreate, Name: "/model"})
		ino := re.Arg1
		rng := r.env.Rand()
		ref := make([]byte, 0, 1<<20)
		for step := 0; step < 60; step++ {
			off := int64(rng.Intn(256 << 10))
			n := rng.Intn(20<<10) + 1
			data := make([]byte, n)
			rng.Read(data)
			// Grow the reference to cover the write.
			if need := off + int64(n); need > int64(len(ref)) {
				ref = append(ref, make([]byte, need-int64(len(ref)))...)
			}
			copy(ref[off:], data)
			rep := fsCall(t, c, r.mfsEp, kernel.Message{
				Type: proto.FSWrite, Arg1: ino, Arg3: off, Payload: data,
			})
			if rep.Arg1 != int64(n) {
				t.Errorf("step %d: write %d", step, rep.Arg1)
				return
			}
			// Random verification read.
			voff := int64(rng.Intn(len(ref)))
			vn := rng.Intn(16<<10) + 1
			rep = fsCall(t, c, r.mfsEp, kernel.Message{
				Type: proto.FSRead, Arg1: ino, Arg2: int64(vn), Arg3: voff,
			})
			want := ref[voff:]
			if int64(vn) < int64(len(want)) {
				want = want[:vn]
			}
			if !bytes.Equal(rep.Payload, want) {
				t.Errorf("step %d: read mismatch at %d+%d", step, voff, vn)
				return
			}
			c.Bufs().Put(rep.Payload)
		}
		done = true
	})
	r.env.Run(10 * time.Minute)
	if !done {
		t.Fatal("model check did not finish")
	}
}

// TestTwoReadersOneMFS interleaves two readers of two files on one file
// server. Each holds a reply for a while before copying it out — long
// enough for the server to finish the other's next read — and then
// recycles it, poisoned, the way File.Read does. The digests must equal
// those of each file read alone: a server answering every read out of
// one scratch buffer hands the second reader's bytes to the first.
func TestTwoReadersOneMFS(t *testing.T) {
	files := []PreallocFile{{Name: "a", Size: 3 << 20}, {Name: "b", Size: 2<<20 + 4097}}
	// read starts a reader of path in chunk-sized reads; *sum is set when
	// it reaches end of file.
	read := func(r *fsRig, path string, chunk int, sum *[sha1.Size]byte) {
		r.client(t, func(c *kernel.Ctx) {
			c.Sleep(time.Second)
			ino := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSOpen, Name: path}).Arg1
			h := sha1.New()
			for off := int64(0); ; {
				rep := fsCall(t, c, r.mfsEp, kernel.Message{Type: proto.FSRead, Arg1: ino, Arg2: int64(chunk), Arg3: off})
				if rep.Arg1 <= 0 {
					break
				}
				c.Sleep(5 * time.Millisecond)
				h.Write(rep.Payload)
				off += int64(len(rep.Payload))
				c.Bufs().Put(rep.Payload)
			}
			copy(sum[:], h.Sum(nil))
		})
	}
	var wantA, wantB, gotA, gotB [sha1.Size]byte
	alone := newFsRig(t, files)
	read(alone, "/a", 64<<10, &wantA)
	alone.env.Run(time.Minute)
	alone = newFsRig(t, files)
	read(alone, "/b", 64<<10, &wantB)
	alone.env.Run(time.Minute)

	poison(t)
	r := newFsRig(t, files)
	read(r, "/a", 64<<10, &gotA)
	read(r, "/b", 4096+1, &gotB) // every read ends mid-block
	r.env.Run(time.Minute)
	var zero [sha1.Size]byte
	if wantA == zero || wantB == zero || wantA == wantB {
		t.Fatalf("reference reads did not finish: %x %x", wantA, wantB)
	}
	if gotA != wantA || gotB != wantB {
		t.Errorf("interleaved reads: /a ok=%v, /b ok=%v", gotA == wantA, gotB == wantB)
	}
}
