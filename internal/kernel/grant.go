package kernel

// Memory grants: the capability-protected cross-address-space copy
// mechanism of paper §4. A process that wants to expose part of its memory
// creates a grant describing the buffer and access rights and passes the
// grant ID in a request message; the other party moves data with SafeCopy.
// Grants die with their owner, so a restarted component cannot be tricked
// into serving a stale capability.

// GrantID names a grant in its owner's grant table. Zero is "no grant".
type GrantID int32

// GrantAccess describes permitted directions of a grant.
type GrantAccess int

// Grant access modes.
const (
	GrantRead  GrantAccess = 1 << iota // grantee may read (copy-from)
	GrantWrite                         // grantee may write (copy-to)
)

type grant struct {
	buf    []byte
	access GrantAccess
	to     Endpoint // grantee; Any allows any process
}

// createGrant installs a grant over buf in e's table.
func (e *procEntry) createGrant(buf []byte, access GrantAccess, to Endpoint) GrantID {
	e.nextGrant++
	id := e.nextGrant
	e.grants[id] = &grant{buf: buf, access: access, to: to}
	e.k.version++
	return id
}

// findGrant validates grantee access to (owner, id).
func (k *Kernel) findGrant(owner Endpoint, id GrantID, grantee *procEntry, want GrantAccess) (*grant, error) {
	o := k.lookup(owner)
	if o == nil {
		return nil, ErrDeadDst
	}
	g, ok := o.grants[id]
	if !ok {
		return nil, ErrBadGrant
	}
	if g.to != Any && g.to != grantee.ep {
		return nil, ErrBadGrant
	}
	if g.access&want == 0 {
		return nil, ErrBadGrant
	}
	return g, nil
}

// safeCopyFrom copies from (owner, id) at offset into dst on behalf of e.
func (k *Kernel) safeCopyFrom(e *procEntry, owner Endpoint, id GrantID, offset int, dst []byte) error {
	if !e.priv.allowsCall(CallSafeCopy) {
		return ErrNotAllowed
	}
	g, err := k.findGrant(owner, id, e, GrantRead)
	if err != nil {
		return err
	}
	if offset < 0 || offset+len(dst) > len(g.buf) {
		return ErrBadGrant
	}
	copy(dst, g.buf[offset:])
	return nil
}

// safeCopyTo copies src into (owner, id) at offset on behalf of e.
func (k *Kernel) safeCopyTo(e *procEntry, owner Endpoint, id GrantID, offset int, src []byte) error {
	if !e.priv.allowsCall(CallSafeCopy) {
		return ErrNotAllowed
	}
	g, err := k.findGrant(owner, id, e, GrantWrite)
	if err != nil {
		return err
	}
	if offset < 0 || offset+len(src) > len(g.buf) {
		return ErrBadGrant
	}
	copy(g.buf[offset:], src)
	return nil
}
