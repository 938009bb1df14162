package core

import (
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
)

// Call is the request/reply a server makes to a peer that may take long to
// answer — a file server whose disk driver is being reincarnated, a disk
// driver still resetting its device. It queues m at dst and blocks for
// dst's reply, answering the reincarnation server's heartbeat pings
// meanwhile, so a server blocked on a slow peer is never taken for stuck.
// It fails with kernel.ErrSrcDied when dst dies before replying.
func Call(c *kernel.Ctx, dst kernel.Endpoint, m kernel.Message) (kernel.Message, error) {
	if err := c.AsyncSend(dst, m); err != nil {
		return kernel.Message{}, err
	}
	rs := c.LookupLabel(Label) // [recovery]
	for {
		reply, err := c.ReceiveOr(dst, rs)
		if err != nil || reply.Source == dst {
			return reply, err
		}
		if reply.Type == proto.RSPing { // [recovery]
			_ = c.AsyncSend(reply.Source, kernel.Message{Type: proto.RSPong}) // [recovery]
		} // [recovery]
	}
}
