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
	dst := w.nics[1-from]
	w.env.Schedule(w.Delay, func() { dst.deliver(frame, fcs) })
}
