// Package ds implements the data store (DS) of paper §5.3: a simple name
// server mapping stable component names to current IPC endpoints, a
// publish/subscribe mechanism that disseminates configuration changes
// (restarted drivers' new endpoints) to dependent components, and a small
// database where system processes can back up private state.
//
// Authentication of private records is by *stable name*: a record stored
// by label "inet" can be retrieved by any process instance with that
// label, however many times it has been restarted — exactly the paper's
// scheme for recovering lost state after a crash.
package ds

import (
	"sort"

	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/proto"
)

// Label is DS's stable component label.
const Label = "ds"

// Privileges returns the privilege set DS runs with.
func Privileges() kernel.Privileges {
	return kernel.Privileges{AllowAllIPC: true, UID: 10}
}

// publisherLabel is the only component allowed to publish or withdraw
// naming entries (the reincarnation server keeps the table up to date,
// paper §5.3).
const publisherLabel = "rs"

type subscription struct {
	pattern string
	ep      kernel.Endpoint
	label   string
}

type record struct {
	owner string // stable label of the storing process
	data  []byte
}

// DS is the data store server.
type DS struct {
	ctx    *kernel.Ctx
	names  map[string]kernel.Endpoint
	sorted []string // cached name order; nil = rebuild
	ver    uint64   // see Version; bumped on every write to names
	subs   []subscription
	store  map[string]record // key: owner + "\x00" + name
	labels map[kernel.Endpoint]string
}

// sortedNames returns the published names in order, cached between
// naming changes: the live invariant checker walks the table after every
// scheduler step.
func (d *DS) sortedNames() []string {
	if d.sorted == nil {
		d.sorted = make([]string, 0, len(d.names))
		for name := range d.names {
			d.sorted = append(d.sorted, name)
		}
		sort.Strings(d.sorted)
	}
	return d.sorted
}

// StartServer spawns the data store and also returns the server handle,
// which the live invariant checker inspects via VisitNames.
func StartServer(k *kernel.Kernel) (*DS, kernel.Endpoint, error) {
	d := &DS{
		names: make(map[string]kernel.Endpoint),
		store: make(map[string]record),
	}
	ctx, err := k.Spawn(Label, Privileges(), d.run)
	if err != nil {
		return nil, kernel.None, err
	}
	return d, ctx.Endpoint(), nil
}

// Version counts the writes to the naming table (publish, withdraw,
// failover). While it stands still VisitNames reports the same entries,
// which lets the invariant checker skip rescanning an unchanged table.
func (d *DS) Version() uint64 { return d.ver }

// VisitNames calls fn for every published name, in name order. Read-only;
// for the invariant checker's stale-endpoint scan.
func (d *DS) VisitNames(fn func(name string, ep kernel.Endpoint)) {
	for _, name := range d.sortedNames() {
		fn(name, d.names[name])
	}
}

func (d *DS) run(c *kernel.Ctx) {
	d.ctx = c
	for {
		m, err := c.Receive(kernel.Any)
		if err != nil {
			return
		}
		switch m.Type {
		case proto.DSPublish:
			d.publish(m)
		case proto.DSWithdraw:
			d.withdraw(m)
		case proto.DSFailover:
			d.failover(m)
		case proto.DSSubscribe:
			d.subscribe(m)
		case proto.DSStore:
			d.storePrivate(m)
		case proto.DSRetrieve:
			d.retrievePrivate(m)
		}
	}
}

// senderLabel resolves the stable label of a message's sender. The kernel
// is the authority: labels cannot be forged by the sender.
func (d *DS) senderLabel(ep kernel.Endpoint) string {
	return d.ctx.Kernel().LabelOf(ep)
}

func (d *DS) reply(to kernel.Endpoint, m kernel.Message) {
	_ = d.ctx.Send(to, m)
}

func (d *DS) publish(m kernel.Message) {
	if d.senderLabel(m.Source) != publisherLabel {
		d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.ErrPerm})
		return
	}
	if _, exists := d.names[m.Name]; !exists {
		d.sorted = nil // new name: re-sort on next walk
	}
	d.names[m.Name] = kernel.Endpoint(m.Arg1)
	d.ver++
	d.ctx.Obs().Emit(obs.KindPublish, Label, m.Name, m.Arg1, 0)
	d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.OK})
	d.fanout(m.Name, m.Arg1)
}

func (d *DS) withdraw(m kernel.Message) {
	if d.senderLabel(m.Source) != publisherLabel {
		d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.ErrPerm})
		return
	}
	delete(d.names, m.Name)
	d.sorted = nil
	d.ver++
	d.ctx.Obs().Emit(obs.KindPublish, Label, m.Name, proto.InvalidEndpoint, 1)
	d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.OK})
	d.fanout(m.Name, proto.InvalidEndpoint)
}

// failover atomically republishes a name onto a promoted standby
// replica. It refuses (ErrExist) while the currently published endpoint
// is still a live process: a name never has two live owners, so the old
// instance must be dead before the replica may take the name over. The
// republish and fanout happen in one DS turn — subscribers never observe
// an intermediate withdrawn state.
// [recovery:begin]
func (d *DS) failover(m kernel.Message) {
	if d.senderLabel(m.Source) != publisherLabel {
		d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.ErrPerm})
		return
	}
	next := kernel.Endpoint(m.Arg1)
	if cur, ok := d.names[m.Name]; ok && cur != next && d.ctx.Kernel().Alive(cur) {
		d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.ErrExist})
		return
	}
	if _, exists := d.names[m.Name]; !exists {
		d.sorted = nil
	}
	d.names[m.Name] = next
	d.ver++
	d.ctx.Obs().Emit(obs.KindPublish, Label, m.Name, m.Arg1, 0)
	d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.OK})
	d.fanout(m.Name, m.Arg1)
}

// [recovery:end]

// fanout pushes a naming change to every matching subscriber. Dead
// subscribers are pruned. This is the publish/subscribe dissemination that
// initiates dependent components' recovery (paper §5.3).
// [recovery:begin]
func (d *DS) fanout(name string, ep int64) {
	alive := d.subs[:0]
	for _, s := range d.subs {
		if !Match(s.pattern, name) {
			alive = append(alive, s)
			continue
		}
		// A subscriber may itself have been restarted; re-resolve its
		// label so updates chase the live instance.
		dst := s.ep
		if cur := d.ctx.LookupLabel(s.label); cur != kernel.None {
			dst = cur
		}
		err := d.ctx.AsyncSend(dst, kernel.Message{
			Type: proto.DSUpdate,
			Name: name,
			Arg1: ep,
		})
		if err == nil {
			s.ep = dst
			alive = append(alive, s)
		}
	}
	d.subs = alive
}

// [recovery:end]

func (d *DS) subscribe(m kernel.Message) {
	sub := subscription{
		pattern: m.Name,
		ep:      m.Source,
		label:   d.senderLabel(m.Source),
	}
	d.subs = append(d.subs, sub)
	d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.OK})
	// Replay current matches so a late (or restarted) subscriber learns
	// the present configuration.
	for _, name := range sortedKeys(d.names) {
		if Match(sub.pattern, name) {
			_ = d.ctx.AsyncSend(m.Source, kernel.Message{
				Type: proto.DSUpdate,
				Name: name,
				Arg1: int64(d.names[name]),
			})
		}
	}
}

// The private backup store lets restarted components retrieve state lost
// in a crash, authenticated by stable name (paper §5.3).
// [recovery:begin]
func (d *DS) storePrivate(m kernel.Message) {
	owner := d.senderLabel(m.Source)
	if owner == "" {
		d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.ErrPerm})
		return
	}
	cp := make([]byte, len(m.Payload))
	copy(cp, m.Payload)
	d.store[owner+"\x00"+m.Name] = record{owner: owner, data: cp}
	d.reply(m.Source, kernel.Message{Type: proto.DSAck, Arg2: proto.OK})
}

func (d *DS) retrievePrivate(m kernel.Message) {
	owner := d.senderLabel(m.Source)
	rec, ok := d.store[owner+"\x00"+m.Name]
	reply := kernel.Message{Type: proto.DSAck, Name: m.Name}
	if !ok {
		reply.Arg2 = proto.ErrNotFound
	} else {
		reply.Arg2 = proto.OK
		reply.Payload = append([]byte(nil), rec.data...)
	}
	d.reply(m.Source, reply)
}

// [recovery:end]

// sortedKeys keeps subscription-replay order deterministic.
func sortedKeys(m map[string]kernel.Endpoint) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Match reports whether a DS subscription pattern matches a name.
// Patterns support '*' (any run) and '?' (any single character); the
// paper's example is the network server subscribing to 'eth.*'.
func Match(pattern, name string) bool {
	pi, si := 0, 0
	star, starSi := -1, 0
	for si < len(name) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == name[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			star, starSi = pi, si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}
