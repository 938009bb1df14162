// Package resilientos is a deterministic, full-system simulation of the
// failure-resilient operating system of Herder et al., "Failure Resilience
// for Device Drivers" (DSN 2007): a MINIX 3-like microkernel OS whose
// drivers and servers run as isolated processes guarded by a reincarnation
// server, with policy-driven recovery, a publish/subscribe data store for
// post-restart reintegration, and transparent recovery of network and
// block device drivers.
//
// A System boots the whole stack — microkernel, process manager, data
// store, reincarnation server, network server(s), file servers, device
// drivers, and simulated hardware — in virtual time. Applications are
// spawned as simulated processes and use the socket/file libraries;
// drivers can be killed, fault-injected, or dynamically updated while I/O
// is in progress, and the recovery machinery masks the failures exactly
// as the paper describes.
//
//	sys := resilientos.New(resilientos.Config{})
//	sys.Spawn("app", func(p *resilientos.Proc) {
//		conn, _ := p.Dial(resilientos.NetLocal, resilientos.DriverRTL8139, 80)
//		...
//	})
//	sys.Every(2*time.Second, func() { sys.KillDriver(resilientos.DriverRTL8139) })
//	sys.Run(time.Minute)
package resilientos

import (
	"io"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/drivers/chardrv"
	"resilientos/internal/drivers/dp8390"
	"resilientos/internal/drivers/ramdisk"
	"resilientos/internal/drivers/rtl8139"
	"resilientos/internal/drivers/sata"
	"resilientos/internal/drvlib"
	"resilientos/internal/hw"
	"resilientos/internal/inet"
	"resilientos/internal/kernel"
	"resilientos/internal/mfs"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/perf"
	"resilientos/internal/policy"
	"resilientos/internal/proc"
	"resilientos/internal/ucode"
	"resilientos/internal/vfs"

	"resilientos/internal/ds"
	"resilientos/internal/sim"
)

// Stable driver and server labels of the standard system.
const (
	DriverRTL8139 = "eth.rtl8139" // network driver on NIC0 (Fig. 7 target)
	DriverDP8390  = "eth.dp8390"  // network driver on NIC1 (§7.2 target)
	DriverSATA    = "disk.sata"   // block driver (Fig. 8 target)
	DriverRAMDisk = "disk.ram"    // trusted RAM disk
	DriverAudio   = "chr.audio"
	DriverPrinter = "chr.printer"
	DriverBurner  = "chr.burner"

	ServerInet       = "inet"  // local network server
	ServerRemoteInet = "rinet" // the remote peer's network server
	ServerMFS        = "mfs"   // file server
	ServerVFS        = "vfs"   // virtual file system

	remoteDriver0 = "reth.0" // remote peer's driver on NIC0's wire
	remoteDriver1 = "reth.1" // remote peer's driver on NIC1's wire
)

// NetSide selects which network server an application talks to.
type NetSide int

// Network sides.
const (
	NetLocal  NetSide = iota + 1 // the simulated OS under test
	NetRemote                    // the remote peer ("the Internet")
)

// Config configures a System. The zero value boots the standard machine.
type Config struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Trace, if set, receives the virtual-time event log.
	Trace io.Writer
	// Obs, if set, is wired into the kernel and simulation engine: every
	// instrumented layer emits structured trace events and metrics through
	// it. Nil (the default) keeps all instrumentation free.
	Obs *obs.Recorder
	// Decisions, if set, receives the reincarnation server's recovery
	// decision trace (internal/obs/decision). Nil keeps the RS decision
	// points free.
	Decisions *decision.Recorder
	// Perf, if set, attaches wall-clock telemetry for the simulator
	// itself (internal/perf): scheduler step loop, kernel IPC dispatch,
	// driver ucode VMs, and the obs/decision recorders all report cost
	// into it. Strictly wall-clock: virtual-time results are identical
	// with and without it. Nil (the default) keeps every hook free.
	Perf *perf.Profiler
	// Machine tunes the simulated hardware.
	Machine hw.MachineConfig

	// HeartbeatPeriod for driver liveness pings (default 500ms; 0 keeps
	// the default, negative disables heartbeats).
	HeartbeatPeriod time.Duration
	// HeartbeatMisses is N consecutive misses before a driver is declared
	// stuck (default 3).
	HeartbeatMisses int

	// NetPolicy optionally attaches a recovery policy script (and its
	// parameters) to the network drivers. Disk drivers never get one
	// (§6.2: they are restarted directly from RAM).
	NetPolicy       *policy.Script
	NetPolicyParams []string

	// MaxRestarts bounds consecutive recoveries per driver (0 = forever).
	MaxRestarts int

	// Mechanism selects the recovery mechanism for the guarded ucode
	// drivers (eth.rtl8139, eth.dp8390, disk.sata, disk.ram): classic
	// kill-and-respawn (the zero value), in-place microreboot, or a warm
	// standby replica promoted on failure. Drivers without the matching
	// hooks fall back to respawn behavior transparently.
	Mechanism core.Mechanism
	// Salvage enables the crash-consistent state-capsule handshake: on a
	// clean shutdown a driver flushes a small versioned capsule to the
	// data store, and its successor validates-then-adopts it instead of
	// cold-starting.
	Salvage bool

	// PreallocFiles are materialized by mkfs with pseudo-random content
	// already "on disk" — e.g. the Fig. 8 experiment's 1-GB random file.
	PreallocFiles []PreallocFile

	// DisableNet / DisableDisk / DisableChar skip subsystems to speed up
	// focused experiments.
	DisableNet  bool
	DisableDisk bool
	DisableChar bool

	// RTOInit overrides TCP's initial retransmission timeout.
	RTOInit time.Duration

	// MFSPollInterval switches the file server's driver reintegration
	// from data-store publish/subscribe to periodic polling (ablation
	// benchmarks only; 0 = the paper's pub-sub design).
	MFSPollInterval time.Duration
}

// System is a booted instance of the failure-resilient OS plus its
// hardware and remote peer.
type System struct {
	Env     *sim.Env
	Kernel  *kernel.Kernel
	Machine *hw.Machine
	RS      *core.RS
	DS      *ds.DS // data-store server handle (naming-table inspection)

	PMEp kernel.Endpoint
	DSEp kernel.Endpoint

	LocalInet  *inet.Server
	RemoteInet *inet.Server
	MFS        *mfs.Server
	VFS        *vfs.Server
	RAMStore   *ramdisk.Store

	cfg    Config
	vms    map[string]*ucode.VM // live driver VMs, by label
	svcBuf []core.ServiceInfo   // Health's reused RS snapshot
}

// New boots a system. It panics only on configuration bugs (boot is a
// build-time invariant of the standard machine).
func New(cfg Config) *System {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 500 * time.Millisecond
	}
	if cfg.HeartbeatMisses == 0 {
		cfg.HeartbeatMisses = 3
	}
	env := sim.NewEnv(cfg.Seed)
	if cfg.Trace != nil {
		env.SetLogOutput(cfg.Trace)
	}
	k := kernel.New(env)
	if cfg.Obs != nil {
		cfg.Obs.SetClock(env.Now)
		obs.AttachSim(env, cfg.Obs)
		k.SetObs(cfg.Obs)
	}
	if cfg.Perf != nil {
		cfg.Perf.Attach(env)
		k.SetPerf(cfg.Perf)
		cfg.Obs.SetPerf(cfg.Perf)
		cfg.Decisions.SetPerf(cfg.Perf)
	}
	machine := hw.NewMachine(env, k, cfg.Machine)
	sys := &System{
		Env:     env,
		Kernel:  k,
		Machine: machine,
		cfg:     cfg,
		vms:     make(map[string]*ucode.VM),
	}

	var err error
	sys.PMEp, err = proc.Start(k)
	if err != nil {
		panic(err)
	}
	sys.DS, sys.DSEp, err = ds.StartServer(k)
	if err != nil {
		panic(err)
	}
	cfg.Decisions.SetClock(env.Now)
	sys.RS, err = core.Start(k, sys.PMEp, sys.DSEp,
		core.WithOnReboot(func() { env.Stop() }),
		core.WithDecisions(cfg.Decisions))
	if err != nil {
		panic(err)
	}

	if !cfg.DisableNet {
		sys.bootNet()
	}
	if !cfg.DisableDisk {
		sys.bootDisk()
	}
	if !cfg.DisableChar {
		sys.bootChar()
	}
	if !cfg.DisableDisk || !cfg.DisableChar {
		// VFS serves both file paths (via MFS) and /dev device nodes, so
		// it boots whenever either subsystem is present.
		sys.VFS = vfs.New(vfs.Config{DS: sys.DSEp, FSLabel: ServerMFS})
		sys.RS.StartService(core.ServiceConfig{
			Label:           ServerVFS,
			Binary:          sys.VFS.Binary(),
			Priv:            sys.serverPriv(false),
			HeartbeatPeriod: sys.hb(),
			HeartbeatMisses: sys.cfg.HeartbeatMisses,
		})
	}
	return sys
}

// hb returns the effective heartbeat period (0 disables).
func (sys *System) hb() sim.Time {
	if sys.cfg.HeartbeatPeriod < 0 {
		return 0
	}
	return sys.cfg.HeartbeatPeriod
}

// trackVM records the live VM of a ucode driver instance (and, when
// wall-clock telemetry is on, brackets its invocations in RegionUcode).
func (sys *System) trackVM(label string) func(*ucode.VM) {
	return func(vm *ucode.VM) {
		sys.vms[label] = vm
		sys.cfg.Perf.AttachVM(vm)
	}
}

// DriverVM returns the currently running instance's ucode VM for a
// driver label — the handle the fault-injection campaign mutates.
func (sys *System) DriverVM(label string) *ucode.VM { return sys.vms[label] }

func (sys *System) driverPriv(ports kernel.PortRange, irq int) kernel.Privileges {
	return kernel.Privileges{
		IPCTo: []string{core.Label, ds.Label, proc.Label, ServerInet,
			ServerRemoteInet, ServerMFS, ServerVFS},
		Calls: []kernel.Call{kernel.CallDevIO, kernel.CallIRQCtl,
			kernel.CallAlarm, kernel.CallSafeCopy},
		Ports: []kernel.PortRange{ports},
		IRQs:  []int{irq},
		UID:   100,
	}
}

// guardedDriver describes one of the drivers the recovery mechanism
// applies to. The mechanism has a driver half (drvlib.Options, handed to
// binary) and an RS half (ServiceConfig.Mechanism) that must agree; both
// are derived here from the one Config value.
func (sys *System) guardedDriver(label string, priv kernel.Privileges,
	binary func(drvlib.Options) core.Binary) core.ServiceConfig {
	return core.ServiceConfig{
		Label:           label,
		Binary:          binary(drvlib.Options{Mechanism: sys.cfg.Mechanism, Salvage: sys.cfg.Salvage}),
		Priv:            priv,
		HeartbeatPeriod: sys.hb(),
		HeartbeatMisses: sys.cfg.HeartbeatMisses,
		MaxRestarts:     sys.cfg.MaxRestarts,
		Mechanism:       sys.cfg.Mechanism,
	}
}

func (sys *System) serverPriv(mayComplain bool) kernel.Privileges {
	return kernel.Privileges{
		AllowAllIPC: true,
		Calls:       []kernel.Call{kernel.CallAlarm, kernel.CallSafeCopy},
		MayComplain: mayComplain,
		UID:         10,
	}
}

func (sys *System) bootNet() {
	cfg := sys.cfg
	m := sys.Machine
	// Local drivers.
	eth := func(label string, nic *hw.NIC, binary func(drvlib.EthConfig) func(*kernel.Ctx)) {
		svc := sys.guardedDriver(label, sys.driverPriv(nic.PortRange(), nic.IRQ()),
			func(o drvlib.Options) core.Binary {
				return binary(drvlib.EthConfig{NIC: nic, OnVM: sys.trackVM(label), Options: o})
			})
		svc.Policy, svc.PolicyParams = cfg.NetPolicy, cfg.NetPolicyParams
		sys.RS.StartService(svc)
	}
	eth(DriverRTL8139, m.NIC0, rtl8139.Binary)
	eth(DriverDP8390, m.NIC1, dp8390.Binary)
	// Remote peer drivers: ideal, never killed by the experiments.
	sys.RS.StartService(core.ServiceConfig{
		Label:  remoteDriver0,
		Binary: rtl8139.Binary(rtl8139.Config{NIC: m.Remote}),
		Priv:   sys.driverPriv(m.Remote.PortRange(), m.Remote.IRQ()),
	})
	sys.RS.StartService(core.ServiceConfig{
		Label:  remoteDriver1,
		Binary: rtl8139.Binary(rtl8139.Config{NIC: m.Remote1}),
		Priv:   sys.driverPriv(m.Remote1.PortRange(), m.Remote1.IRQ()),
	})
	// Network servers.
	sys.LocalInet = inet.New(inet.Config{
		Pattern: "eth.*",
		DS:      sys.DSEp,
		RTOInit: sys.cfg.RTOInit,
	})
	sys.RS.StartService(core.ServiceConfig{
		Label:           ServerInet,
		Binary:          sys.LocalInet.Binary(),
		Priv:            sys.serverPriv(true),
		HeartbeatPeriod: sys.hb(),
		HeartbeatMisses: cfg.HeartbeatMisses,
	})
	sys.RemoteInet = inet.New(inet.Config{
		Pattern: "reth.*",
		DS:      sys.DSEp,
		RTOInit: sys.cfg.RTOInit,
	})
	sys.RS.StartService(core.ServiceConfig{
		Label:  ServerRemoteInet,
		Binary: sys.RemoteInet.Binary(),
		Priv:   sys.serverPriv(false),
	})
}

// PreallocFile names a file mkfs creates over the disk's existing
// pseudo-random content, without writing data blocks.
type PreallocFile struct {
	Name string
	Size int64
}

func (sys *System) bootDisk() {
	m := sys.Machine
	var prealloc []mfs.PreallocFile
	for _, pf := range sys.cfg.PreallocFiles {
		prealloc = append(prealloc, mfs.PreallocFile{Name: pf.Name, Size: pf.Size})
	}
	if _, err := mfs.Mkfs(m.Disk, mfs.MkfsConfig{Ateach: prealloc}); err != nil {
		panic(err)
	}
	// §6.2: no policy script for disk drivers — direct RAM restart.
	sys.RS.StartService(sys.guardedDriver(DriverSATA, sys.driverPriv(m.Disk.PortRange(), m.Disk.IRQ()),
		func(o drvlib.Options) core.Binary {
			return sata.Binary(sata.Config{Disk: m.Disk, OnVM: sys.trackVM(DriverSATA), Options: o})
		}))
	sys.RAMStore = ramdisk.NewStore()
	ram := sys.guardedDriver(DriverRAMDisk, kernel.Privileges{
		IPCTo: []string{core.Label, ds.Label, ServerMFS, ServerVFS},
		Calls: []kernel.Call{kernel.CallSafeCopy},
		UID:   100,
	}, func(o drvlib.Options) core.Binary {
		return ramdisk.Binary(ramdisk.Config{Backing: sys.RAMStore, Options: o})
	})
	ram.MaxRestarts = 0 // the trusted RAM disk is never given up on
	sys.RS.StartService(ram)
	// File server stack.
	sys.MFS = mfs.New(mfs.Config{
		DS:           sys.DSEp,
		DriverLabel:  DriverSATA,
		Disk:         mfs.Geometry{Sectors: sys.Machine.Disk.Sectors()},
		PollInterval: sys.cfg.MFSPollInterval,
	})
	sys.RS.StartService(core.ServiceConfig{
		Label:           ServerMFS,
		Binary:          sys.MFS.Binary(),
		Priv:            sys.serverPriv(true),
		HeartbeatPeriod: sys.hb(),
		HeartbeatMisses: sys.cfg.HeartbeatMisses,
	})
}

func (sys *System) bootChar() {
	m := sys.Machine
	sys.RS.StartService(core.ServiceConfig{
		Label:           DriverAudio,
		Binary:          chardrv.AudioBinary(m.Audio),
		Priv:            sys.driverPriv(m.Audio.PortRange(), m.Audio.IRQ()),
		HeartbeatPeriod: sys.hb(),
		HeartbeatMisses: sys.cfg.HeartbeatMisses,
	})
	sys.RS.StartService(core.ServiceConfig{
		Label:           DriverPrinter,
		Binary:          chardrv.PrinterBinary(m.Printer),
		Priv:            sys.driverPriv(m.Printer.PortRange(), m.Printer.IRQ()),
		HeartbeatPeriod: sys.hb(),
		HeartbeatMisses: sys.cfg.HeartbeatMisses,
	})
	sys.RS.StartService(core.ServiceConfig{
		Label:           DriverBurner,
		Binary:          chardrv.BurnerBinary(m.Burner),
		Priv:            sys.driverPriv(m.Burner.PortRange(), m.Burner.IRQ()),
		HeartbeatPeriod: sys.hb(),
		HeartbeatMisses: sys.cfg.HeartbeatMisses,
	})
}

// Obs returns the observability recorder the system was booted with
// (nil when observability is off; all recorder methods are nil-safe).
func (sys *System) Obs() *obs.Recorder { return sys.cfg.Obs }

// Decisions returns the recovery-decision recorder the system was booted
// with (nil when decision tracing is off; all methods are nil-safe).
func (sys *System) Decisions() *decision.Recorder { return sys.cfg.Decisions }

// Run advances the simulation by d of virtual time (0 = until the event
// queue drains). It returns the virtual time reached.
func (sys *System) Run(d time.Duration) time.Duration {
	return sys.Env.Run(d)
}

// Close tears the system down once its results are harvested: every
// process still alive unwinds as if killed, so none of their goroutines
// outlives the system (see sim.Env.Close). Tearing down is not part of
// the run: recorder and profiler are detached first, so the reaping shows
// in neither the trace nor the region counts. A runner that boots systems
// in a loop calls it on each before dropping it.
func (sys *System) Close() {
	sys.Env.SetObserver(nil)
	sys.Kernel.SetObs(nil)
	sys.Kernel.SetPerf(nil)
	sys.Env.Close()
}

// Every schedules fn to run every interval of virtual time, first at
// now+interval (the crash-simulation loop of §7.1 uses this). It returns
// a cancelable ticker: stopping it removes the pending event from the
// queue, so a torn-down node (fleet simulation) or a finished experiment
// does not keep re-arming kill timers forever.
func (sys *System) Every(interval time.Duration, fn func()) *sim.Ticker {
	return sys.Env.Tick(interval, fn)
}

// After schedules fn once after d of virtual time.
func (sys *System) After(d time.Duration, fn func()) {
	sys.Env.Schedule(d, fn)
}

// KillDriver sends SIGKILL to a driver — the §7.1 crash simulation
// ("repeatedly looks up the driver's process ID and kills the driver").
func (sys *System) KillDriver(label string) {
	sys.RS.KillService(label, kernel.SIGKILL)
}

// CrashDriverVM overwrites the code of a driver's live ucode VM so that
// its next routine invocation fails a consistency check (every word
// becomes "assert r0", and the VM clears r0 on entry). Unlike KillDriver
// — an external SIGKILL that no in-process mechanism can intercept — this
// is an internal driver defect, so it exercises respawn, microreboot, and
// standby promotion comparably. Drivers without a live VM are unaffected.
func (sys *System) CrashDriverVM(label string) {
	vm := sys.vms[label]
	if vm == nil {
		return
	}
	crash := ucode.Enc(ucode.OpAssert, 0, 0, 0)
	for i := range vm.Img.Code {
		vm.Img.Code[i] = crash
	}
}

// UpdateDriver performs a dynamic update of a running service.
func (sys *System) UpdateDriver(cfg core.ServiceConfig) {
	sys.RS.UpdateService(cfg)
}

// Service classes of the standard machine, for fleet-level health and
// routing: a class is healthy on a node when its driver and the server
// fronting it are both live and not mid-recovery.
const (
	ClassNet  = "net"  // TCP service via inet + eth.rtl8139
	ClassDisk = "disk" // file service via vfs/mfs + disk.sata
	ClassChar = "char" // character-device jobs via the chr.* drivers
)

// Health is a node-level health snapshot derived from the reincarnation
// server's per-service state — the signal a fleet load balancer routes on.
type Health struct {
	NetOK  bool // inet and the primary NIC driver are serving
	DiskOK bool // vfs/mfs and the disk driver are serving
	CharOK bool // every character-device driver is serving

	Recovering int // guarded services currently mid-recovery
	GaveUp     int // services RS abandoned (MaxRestarts exhausted)
	Failures   int // sum of consecutive-failure counts across services
}

// OK reports whether one service class is currently healthy.
func (h Health) OK(class string) bool {
	switch class {
	case ClassNet:
		return h.NetOK
	case ClassDisk:
		return h.DiskOK
	case ClassChar:
		return h.CharOK
	}
	return false
}

// Health snapshots the system's service health from RS state. A class is
// healthy when every component on its path (driver and server) is
// running, not mid-recovery, and not abandoned; subsystems that were
// disabled at boot report unhealthy.
func (sys *System) Health() Health {
	var h Health
	var net, disk, char int // serving components on each class's path
	sys.svcBuf = sys.RS.ServicesInto(sys.svcBuf[:0])
	for i := range sys.svcBuf {
		s := &sys.svcBuf[i]
		if s.Recovering {
			h.Recovering++
		}
		if s.GaveUp {
			h.GaveUp++
		}
		h.Failures += s.Failures
		if !s.Running || s.Recovering || s.GaveUp || s.Stopped {
			continue
		}
		switch s.Label {
		case ServerInet, DriverRTL8139:
			net++
		case ServerVFS, ServerMFS, DriverSATA:
			disk++
		case DriverAudio, DriverPrinter, DriverBurner:
			char++
		}
	}
	h.NetOK = !sys.cfg.DisableNet && net == 2
	h.DiskOK = !sys.cfg.DisableDisk && disk == 3
	h.CharOK = !sys.cfg.DisableChar && char == 3
	return h
}

// StatusFunc adapts the reincarnation server's service snapshot to the
// windowed-telemetry status column (timeseries.Config.Status) — the
// per-node obs hook single-system figure runs and the fleet simulator
// both sample at window rollovers.
func (sys *System) StatusFunc() func() []timeseries.ServiceStatus {
	return func() []timeseries.ServiceStatus {
		svcs := sys.RS.Services()
		out := make([]timeseries.ServiceStatus, 0, len(svcs))
		for _, s := range svcs {
			state := "dead"
			switch {
			case s.Stopped:
				state = "stopped"
			case s.GaveUp:
				state = "gave-up"
			case s.Recovering:
				state = "recovering"
			case s.Running:
				state = "live"
			}
			out = append(out, timeseries.ServiceStatus{
				Label: s.Label, State: state, Failures: s.Failures,
			})
		}
		return out
	}
}
