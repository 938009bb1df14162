package hw

import "resilientos/internal/sim"

// Wire is a full-duplex point-to-point Ethernet segment between two NICs.
// It computes the FCS at ingress (the sending NIC's MAC would), optionally
// corrupts or drops frames, and delivers after a propagation delay.
type Wire struct {
	env   *sim.Env
	nics  [2]*NIC
	Delay sim.Time // one-way propagation delay

	// LossProb drops a frame with the given probability (models a lossy
	// path for TCP tests; zero for the paper's experiments).
	LossProb float64
	// CorruptProb flips a byte (and so fails the FCS at the receiver).
	CorruptProb float64

	Carried int // frames accepted for transport
	Lost    int // frames dropped in transit

	free []*flight // landed flights, ready for the next frame
}

// Connect joins two NICs with a wire.
func Connect(env *sim.Env, a, b *NIC) *Wire {
	w := &Wire{env: env, nics: [2]*NIC{a, b}, Delay: 50 * sim.Time(1e3)} // 50µs
	a.wire, a.side = w, 0
	b.wire, b.side = w, 1
	return w
}

// carry transports a frame from the NIC on side `from` to its peer.
func (w *Wire) carry(from int, frame []byte) {
	w.Carried++
	if w.LossProb > 0 && w.env.Rand().Float64() < w.LossProb {
		w.Lost++
		return
	}
	fcs := FCS(frame)
	if w.CorruptProb > 0 && w.env.Rand().Float64() < w.CorruptProb && len(frame) > 0 {
		frame[w.env.Rand().Intn(len(frame))] ^= 0xFF // the wire's to garble: the sender let go of it
	}
	w.fly(w.Delay, nil, w.nics[1-from], frame, fcs)
}

// flight is one frame in transit on one leg, with the timer that ends the
// leg: serializing out of src (which then hands it to the wire) or
// propagating to dst. The wire keeps landed flights on a free list, so a
// frame's hops schedule no closure and allocate nothing.
type flight struct {
	w        *Wire
	timer    *sim.Timer
	src, dst *NIC // exactly one is set
	frame    []byte
	fcs      uint32
}

// fly starts a leg that ends d from now. Re-arming a landed flight's timer
// takes a fresh seq, so the leg fires exactly where Schedule put it.
func (w *Wire) fly(d sim.Time, src, dst *NIC, frame []byte, fcs uint32) {
	var f *flight
	if n := len(w.free); n > 0 {
		f, w.free = w.free[n-1], w.free[:n-1]
	} else {
		f = &flight{w: w}
		f.timer = w.env.NewTimer(f.land)
	}
	f.src, f.dst, f.frame, f.fcs = src, dst, frame, fcs
	f.timer.Reset(d)
}

// land ends the leg. The flight is back on the free list before the frame
// moves on, so the next leg may reuse it.
func (f *flight) land() {
	src, dst, frame, fcs := f.src, f.dst, f.frame, f.fcs
	f.src, f.dst, f.frame = nil, nil, nil
	f.w.free = append(f.w.free, f)
	if src != nil {
		src.sent(frame)
	} else {
		dst.deliver(frame, fcs)
	}
}
