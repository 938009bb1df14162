package mfs

import (
	"errors"

	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

// Geometry describes the served volume.
type Geometry struct {
	Sectors int64
}

// Config configures a file server instance.
type Config struct {
	// DS is the data store endpoint.
	DS kernel.Endpoint
	// DriverLabel is the block driver's stable name ("disk.sata").
	DriverLabel string
	// Disk is the volume geometry.
	Disk Geometry
	// CacheBlocks bounds the block cache (default 512 = 2 MiB).
	CacheBlocks int
	// PollInterval, when nonzero, replaces the data store's
	// publish/subscribe reintegration with periodic DSLookup polling —
	// the strawman the paper's pub-sub design avoids. Used by the
	// ablation benchmarks only.
	PollInterval sim.Time
}

// Stats counts file-server events for experiments.
type Stats struct {
	DriverCalls    int
	DriverFailures int // calls that failed because the driver died
	Reissues       int // pending requests retried after a restart
	Recoveries     int // driver restarts absorbed
	Complaints     int // protocol violations reported to RS
	CacheHits      int
	CacheMisses    int
}

// Server is the file server.
type Server struct {
	cfg Config
	ctx *kernel.Ctx

	driverEp kernel.Endpoint
	driverUp bool

	// episode is the trace context the last driver-recovery announcement
	// arrived under (the RS recovery episode's trace); the next reissued
	// request links to it with a "recovered-by" edge.
	episode obs.SpanContext

	sb    *Superblock
	cache *blockCache
	edge  []byte // readFile's scratch for a zone run read mid-block

	bytes *obs.Counter // bytes moved through the driver, cached per binding

	stats Stats
}

// New creates a file server; run its Binary as an RS service.
func New(cfg Config) *Server {
	if cfg.CacheBlocks == 0 {
		cfg.CacheBlocks = 512
	}
	return &Server{cfg: cfg}
}

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats { return s.stats }

// Binary returns the service binary.
func (s *Server) Binary() func(c *kernel.Ctx) {
	return func(c *kernel.Ctx) { s.run(c) }
}

var errDriverDown = errors.New("mfs: block driver unavailable")

// run is the MFS message loop.
func (s *Server) run(c *kernel.Ctx) {
	s.ctx = c
	// Fresh per-incarnation state: a restarted file server remounts and
	// rebinds its driver; the write-through cache holds nothing dirty.
	s.cache = newBlockCache(s.cfg.CacheBlocks)
	s.sb = nil
	s.driverEp = 0
	s.driverUp = false
	// Subscribe to the disk driver's naming updates (or rely on polling
	// when the ablation's PollInterval is set).
	if s.cfg.PollInterval == 0 {
		if _, err := c.SendRec(s.cfg.DS, kernel.Message{
			Type: proto.DSSubscribe, Name: s.cfg.DriverLabel,
		}); err != nil {
			c.Panic("subscribe: " + err.Error())
		}
	} else if ep, ok := s.pollOnce(); ok {
		s.onDriverUpdate(kernel.Message{Type: proto.DSUpdate, Arg1: int64(ep)})
	}
	for {
		m, err := c.Receive(kernel.Any)
		if err != nil {
			return
		}
		switch m.Type {
		case proto.RSPing: // [recovery] heartbeat
			_ = c.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong}) // [recovery]
		case proto.DSUpdate:
			s.onDriverUpdate(m) // [recovery]
		case proto.FSOpen, proto.FSCreate, proto.FSRead, proto.FSWrite,
			proto.FSUnlink, proto.FSStat, proto.FSSync, proto.FSMkdir,
			proto.FSReaddir:
			s.serve(m)
		}
	}
}

// onDriverUpdate notes the (re)started driver's endpoint and reopens the
// device, re-establishing the device-driver mapping (§6.2).
func (s *Server) onDriverUpdate(m kernel.Message) {
	if m.Arg1 == proto.InvalidEndpoint { // [recovery]
		s.driverUp = false // [recovery]
		return             // [recovery]
	}
	restarted := s.driverEp != 0 && s.driverEp != kernel.Endpoint(m.Arg1) // [recovery]
	s.driverEp = kernel.Endpoint(m.Arg1)
	s.bytes = s.ctx.Obs().Metrics().Counter("mfs.bytes." + s.cfg.DriverLabel)
	// Reopen minor devices on the fresh instance.
	reply, err := s.ctx.SendRec(s.driverEp, kernel.Message{Type: proto.BdevOpen, Arg1: 0})
	if err != nil || reply.Arg1 != proto.OK {
		s.driverUp = false
		return
	}
	s.driverUp = true
	if restarted { // [recovery]
		s.stats.Recoveries++                                                                          // [recovery]
		s.ctx.Obs().Emit(obs.KindReintegrate, s.ctx.Label(), s.cfg.DriverLabel, int64(s.driverEp), 0) // [recovery]
		s.episode = m.Trace                                                                           // [recovery]
	}
	if s.sb == nil {
		s.mount()
	}
}

// mount reads the superblock once the driver is first available.
func (s *Server) mount() {
	blk, err := s.readBlock(0)
	if err != nil {
		s.ctx.Logf("mount: %v", err)
		return
	}
	sb, err := decodeSuperblock(blk)
	if err != nil {
		s.ctx.Logf("mount: %v", err)
		return
	}
	s.sb = sb
	s.ctx.Logf("mounted: %d zones, %d inodes", sb.NZones, sb.NInodes)
}

// rawIO performs one block-driver transfer, transparently absorbing
// driver failures: on a dead driver the request is marked pending, the
// server blocks until the data store publishes the restarted driver, and
// the idempotent operation is reissued (§6.2). It only returns once the
// transfer succeeded (or the volume is impossible, e.g. out of range).
//
// Each attempt is its own span under the enclosing request's context: an
// attempt the driver's death interrupts is orphaned, and the reissue is
// linked back to it ("retry-of") and to the RS recovery episode that
// revived the driver ("recovered-by") — the causal arc the paper's
// transparent-recovery claim is about.
func (s *Server) rawIO(write bool, firstSector int64, count int64, buf []byte) error {
	typ := proto.BdevRead
	opName := "bdev.read"
	access := kernel.GrantWrite
	if write {
		typ = proto.BdevWrite
		opName = "bdev.write"
		access = kernel.GrantRead
	}
	reqCtx := s.ctx.TraceCtx()
	var orphaned obs.SpanContext // the last crash-interrupted attempt
	for attempt := 0; ; attempt++ {
		if !s.driverUp { // [recovery]
			s.awaitDriver() // [recovery]
		}
		sc := s.ctx.BeginWork(opName, reqCtx)
		if orphaned.Valid() { // [recovery]
			s.ctx.Obs().LinkSpan(s.ctx.Label(), sc, orphaned, "retry-of") // [recovery]
			orphaned = obs.SpanContext{}                                  // [recovery]
			if s.episode.Valid() {                                        // [recovery]
				s.ctx.Obs().LinkSpan(s.ctx.Label(), sc, s.episode, "recovered-by") // [recovery]
				s.episode = obs.SpanContext{}                                      // [recovery]
			} // [recovery]
		}
		grant := s.ctx.CreateGrant(buf, access, s.driverEp)
		s.stats.DriverCalls++
		reply, err := s.ctx.SendRec(s.driverEp, kernel.Message{
			Type:  typ,
			Arg1:  firstSector,
			Arg2:  count,
			Grant: grant,
		})
		s.ctx.RevokeGrant(grant)
		switch {
		case err != nil:
			// The rendezvous was aborted: the driver died holding our
			// request. Mark pending and wait for the restart.
			s.ctx.OrphanWork(sc, "crash:"+s.cfg.DriverLabel) // [recovery]
			orphaned = sc                                    // [recovery]
			s.stats.DriverFailures++                         // [recovery]
			s.driverUp = false                               // [recovery]
			s.stats.Reissues++                               // [recovery]
			continue                                         // [recovery]
		case reply.Type != proto.BdevReply:
			// Protocol violation: complain to the reincarnation server
			// (defect class 5) and retry against the replacement.
			s.ctx.OrphanWork(sc, "misbehavior:"+s.cfg.DriverLabel) // [recovery]
			orphaned = sc                                          // [recovery]
			s.complain()                                           // [recovery]
			s.stats.DriverFailures++                               // [recovery]
			s.driverUp = false                                     // [recovery]
			continue                                               // [recovery]
		case reply.Arg1 == proto.ErrIO:
			// The driver survived but the transfer failed (e.g. it was
			// restarted mid-command and lost the device state); retry.
			s.ctx.EndWork(sc, 1)     // [recovery]
			orphaned = sc            // [recovery]
			s.stats.DriverFailures++ // [recovery]
			s.stats.Reissues++       // [recovery]
			continue                 // [recovery]
		case reply.Arg1 < 0:
			s.ctx.EndWork(sc, 1)
			return errDriverDown
		}
		s.bytes.Add(int64(len(buf)))
		s.ctx.EndWork(sc, 0)
		return nil
	}
}

// awaitDriver blocks until the data store announces a live driver — "the
// file server blocks and waits until the disk driver has been restarted".
// While waiting it keeps answering the reincarnation server's heartbeats,
// so being blocked on a dead driver is not mistaken for being stuck.
func (s *Server) awaitDriver() { // [recovery]
	if s.cfg.PollInterval > 0 { // [recovery]
		s.awaitDriverPolling() // [recovery]
		return                 // [recovery]
	} // [recovery]
	for !s.driverUp { // [recovery]
		s.answerPings()                              // [recovery]
		if m, ok := s.ctx.TryReceive(s.cfg.DS); ok { // [recovery]
			if m.Type == proto.DSUpdate { // [recovery]
				s.onDriverUpdate(m) // [recovery]
			} // [recovery]
			continue // [recovery]
		} // [recovery]
		s.ctx.Sleep(20 * sim.Time(1e6)) // [recovery]
	} // [recovery]
}

// answerPings drains queued heartbeat requests; only messages from the
// reincarnation server are touched, so client requests stay queued in
// arrival order.
func (s *Server) answerPings() { // [recovery]
	rsEp := s.ctx.LookupLabel("rs") // [recovery]
	if rsEp == kernel.None {        // [recovery]
		return // [recovery]
	} // [recovery]
	for { // [recovery]
		m, ok := s.ctx.TryReceive(rsEp) // [recovery]
		if !ok {                        // [recovery]
			return // [recovery]
		} // [recovery]
		if m.Type == proto.RSPing { // [recovery]
			_ = s.ctx.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong}) // [recovery]
		} // [recovery]
	} // [recovery]
}

// awaitDriverPolling is the ablation's strawman: rediscover the driver by
// periodic name lookups instead of subscription pushes. Each restart goes
// unnoticed for up to a full poll interval.
func (s *Server) awaitDriverPolling() { // [recovery]
	for !s.driverUp { // [recovery]
		// Sleep one poll interval in heartbeat-friendly slices.
		for slept := sim.Time(0); slept < s.cfg.PollInterval; { // [recovery]
			s.answerPings()                      // [recovery]
			step := 100 * sim.Time(1e6)          // [recovery]
			if step > s.cfg.PollInterval-slept { // [recovery]
				step = s.cfg.PollInterval - slept // [recovery]
			} // [recovery]
			s.ctx.Sleep(step) // [recovery]
			slept += step     // [recovery]
		} // [recovery]
		if ep, ok := s.pollOnce(); ok { // [recovery]
			s.onDriverUpdate(kernel.Message{Type: proto.DSUpdate, Arg1: int64(ep)}) // [recovery]
		} // [recovery]
	} // [recovery]
}

// pollOnce asks the data store for the driver's current endpoint.
func (s *Server) pollOnce() (kernel.Endpoint, bool) { // [recovery]
	reply, err := s.ctx.SendRec(s.cfg.DS, kernel.Message{ // [recovery]
		Type: proto.DSLookup, Name: s.cfg.DriverLabel, // [recovery]
	}) // [recovery]
	if err != nil || reply.Arg2 != proto.OK { // [recovery]
		return kernel.None, false // [recovery]
	} // [recovery]
	return kernel.Endpoint(reply.Arg1), true // [recovery]
}

// complain reports the malfunctioning driver to the reincarnation server.
func (s *Server) complain() { // [recovery]
	s.stats.Complaints++            // [recovery]
	rsEp := s.ctx.LookupLabel("rs") // [recovery]
	if rsEp == kernel.None {        // [recovery]
		return // [recovery]
	} // [recovery]
	_, _ = s.ctx.SendRec(rsEp, kernel.Message{ // [recovery]
		Type: proto.RSComplain, Name: s.cfg.DriverLabel, // [recovery]
	}) // [recovery]
}

// readBlock returns one FS block, through the cache.
func (s *Server) readBlock(blockNo int64) ([]byte, error) {
	if b, ok := s.cache.get(blockNo); ok {
		s.stats.CacheHits++
		return b, nil
	}
	s.stats.CacheMisses++
	buf := make([]byte, BlockSize)
	if err := s.rawIO(false, blockNo*SectorsPerBlock, SectorsPerBlock, buf); err != nil {
		return nil, err
	}
	s.cache.put(blockNo, buf)
	return buf, nil
}

// writeBlock writes one FS block (write-through).
func (s *Server) writeBlock(blockNo int64, data []byte) error {
	if err := s.rawIO(true, blockNo*SectorsPerBlock, SectorsPerBlock, data); err != nil {
		return err
	}
	s.cache.put(blockNo, data)
	return nil
}

// readZones reads a contiguous zone run directly (bypassing the cache for
// bulk data; this is the dd fast path — one driver command per run).
func (s *Server) readZones(zone int64, n int64, buf []byte) error {
	return s.rawIO(false, zone*SectorsPerBlock, n*SectorsPerBlock, buf)
}

func (s *Server) writeZones(zone int64, n int64, buf []byte) error {
	for i := int64(0); i < n; i++ {
		s.cache.drop(zone + i)
	}
	return s.rawIO(true, zone*SectorsPerBlock, n*SectorsPerBlock, buf)
}

// SetCacheBlocks adjusts the block cache capacity. Takes effect
// immediately on a live cache, or at startup if the server has not run
// yet (the ablation benches resize before boot).
func (s *Server) SetCacheBlocks(n int) {
	s.cfg.CacheBlocks = n
	if s.cache != nil {
		s.cache.cap = n
	}
}
