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
	// stuck (default core.DefaultHeartbeatMisses).
	HeartbeatMisses int

	// NetPolicy optionally attaches a recovery policy script to the
	// network drivers. Disk drivers never get one (§6.2: they are
	// restarted directly from RAM).
	NetPolicy *policy.Script

	// MaxRestarts bounds consecutive recoveries per driver (0 = forever).
	MaxRestarts int

	// Mechanism selects the recovery mechanism for the guarded ucode
	// drivers (eth.rtl8139, eth.dp8390, disk.sata, disk.ram): classic
	// kill-and-respawn (the zero value), in-place microreboot, or a warm
	// standby replica promoted on failure. Drivers without the matching
	// hooks fall back to respawn behavior transparently.
	Mechanism core.Mechanism

	// PreallocFiles are materialized by mkfs with pseudo-random content
	// already "on disk" — e.g. the Fig. 8 experiment's 1-GB random file.
	PreallocFiles []PreallocFile

	// DisableNet / DisableDisk / DisableChar skip subsystems to speed up
	// focused experiments.
	DisableNet  bool
	DisableDisk bool
	DisableChar bool
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

	onVM func(label string, vm *ucode.VM) // tests: sees each VM as it is made
}

// New boots a system. It panics only on configuration bugs (boot is a
// build-time invariant of the standard machine).
func New(cfg Config) *System {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	switch {
	case cfg.HeartbeatPeriod == 0:
		cfg.HeartbeatPeriod = defaultHeartbeatPeriod
	case cfg.HeartbeatPeriod < 0:
		cfg.HeartbeatPeriod = 0 // RS pings nothing
	}
	if cfg.HeartbeatMisses == 0 {
		cfg.HeartbeatMisses = core.DefaultHeartbeatMisses
	}
	env := sim.NewEnv(cfg.Seed)
	k := kernel.New(env)
	if cfg.Obs != nil {
		cfg.Obs.SetClock(env.Now)
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
		sys.guard(ServerVFS, sys.VFS.Binary(), sys.serverPriv(false))
	}
	return sys
}

// trackVM records the live VM of a ucode driver instance (and, when
// wall-clock telemetry is on, brackets its invocations in RegionUcode).
func (sys *System) trackVM(label string) func(*ucode.VM) {
	return func(vm *ucode.VM) {
		sys.vms[label] = vm
		sys.cfg.Perf.AttachVM(vm)
		if sys.onVM != nil {
			sys.onVM(label, vm)
		}
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
// applies to. The mechanism has a driver half (handed to binary) and an
// RS half (ServiceConfig.Mechanism) that must agree; both are derived here
// from the one Config value.
func (sys *System) guardedDriver(label string, priv kernel.Privileges,
	binary func(drvlib.Mechanism) core.Binary) core.ServiceConfig {
	return core.ServiceConfig{
		Label:           label,
		Binary:          binary(sys.cfg.Mechanism),
		Priv:            priv,
		HeartbeatPeriod: sys.cfg.HeartbeatPeriod,
		HeartbeatMisses: sys.cfg.HeartbeatMisses,
		MaxRestarts:     sys.cfg.MaxRestarts,
		Mechanism:       sys.cfg.Mechanism,
	}
}

// guard starts a service whose only recovery knobs are the system's
// liveness ones: a server, or a character driver.
func (sys *System) guard(label string, binary core.Binary, priv kernel.Privileges) {
	sys.RS.StartService(core.ServiceConfig{
		Label: label, Binary: binary, Priv: priv,
		HeartbeatPeriod: sys.cfg.HeartbeatPeriod,
		HeartbeatMisses: sys.cfg.HeartbeatMisses,
	})
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
	m := sys.Machine
	// Local drivers.
	eth := func(label string, nic *hw.NIC, binary func(drvlib.EthConfig) func(*kernel.Ctx)) {
		svc := sys.guardedDriver(label, sys.driverPriv(nic.PortRange(), nic.IRQ()),
			func(mech drvlib.Mechanism) core.Binary {
				return binary(drvlib.EthConfig{NIC: nic, OnVM: sys.trackVM(label), Mechanism: mech})
			})
		svc.Policy = sys.cfg.NetPolicy
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
	})
	sys.guard(ServerInet, sys.LocalInet.Binary(), sys.serverPriv(true))
	sys.RemoteInet = inet.New(inet.Config{
		Pattern: "reth.*",
		DS:      sys.DSEp,
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
	if _, err := mfs.Mkfs(m.Disk, prealloc); err != nil {
		panic(err)
	}
	// §6.2: no policy script for disk drivers — direct RAM restart.
	sys.RS.StartService(sys.guardedDriver(DriverSATA, sys.driverPriv(m.Disk.PortRange(), m.Disk.IRQ()),
		func(mech drvlib.Mechanism) core.Binary {
			return sata.Binary(sata.Config{Disk: m.Disk, OnVM: sys.trackVM(DriverSATA), Mechanism: mech})
		}))
	sys.RAMStore = ramdisk.NewStore()
	ram := sys.guardedDriver(DriverRAMDisk, kernel.Privileges{
		IPCTo: []string{core.Label, ds.Label, ServerMFS, ServerVFS},
		Calls: []kernel.Call{kernel.CallSafeCopy},
		UID:   100,
	}, func(mech drvlib.Mechanism) core.Binary {
		return ramdisk.Binary(ramdisk.Config{Backing: sys.RAMStore, Mechanism: mech})
	})
	ram.MaxRestarts = 0 // the trusted RAM disk is never given up on
	sys.RS.StartService(ram)
	// File server stack.
	sys.MFS = mfs.New(mfs.Config{
		DS:          sys.DSEp,
		DriverLabel: DriverSATA,
		Disk:        mfs.Geometry{Sectors: sys.Machine.Disk.Sectors()},
	})
	sys.guard(ServerMFS, sys.MFS.Binary(), sys.serverPriv(true))
}

func (sys *System) bootChar() {
	m := sys.Machine
	sys.guard(DriverAudio, chardrv.AudioBinary(m.Audio), sys.driverPriv(m.Audio.PortRange(), m.Audio.IRQ()))
	sys.guard(DriverPrinter, chardrv.PrinterBinary(m.Printer), sys.driverPriv(m.Printer.PortRange(), m.Printer.IRQ()))
	sys.guard(DriverBurner, chardrv.BurnerBinary(m.Burner), sys.driverPriv(m.Burner.PortRange(), m.Burner.IRQ()))
}

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
	code := vm.Writable().Code
	for i := range code {
		code[i] = crash
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

// ClassOf maps a guarded service label to the class whose path it is on,
// or "" for a service on none (eth.dp8390, disk.ram).
func ClassOf(label string) string {
	switch label {
	case ServerInet, DriverRTL8139:
		return ClassNet
	case ServerVFS, ServerMFS, DriverSATA:
		return ClassDisk
	case DriverAudio, DriverPrinter, DriverBurner:
		return ClassChar
	}
	return ""
}

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
		if s.Phase.Recovering() {
			h.Recovering++
		}
		if s.Phase == core.PhaseGaveUp {
			h.GaveUp++
		}
		h.Failures += s.Failures
		if !s.Phase.Serving() {
			continue
		}
		switch ClassOf(s.Label) {
		case ClassNet:
			net++
		case ClassDisk:
			disk++
		case ClassChar:
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
			state := "dead" // PhaseDown
			switch s.Phase {
			case core.PhaseServing, core.PhaseTerminating:
				state = "live"
			case core.PhaseRecovering, core.PhaseMicrorebooting:
				state = "recovering"
			case core.PhaseStopping, core.PhaseStopped:
				state = "stopped"
			case core.PhaseGaveUp:
				state = "gave-up"
			}
			out = append(out, timeseries.ServiceStatus{
				Label: s.Label, State: state, Failures: s.Failures,
			})
		}
		return out
	}
}
