package kernel

import "sort"

// Kernel state inspection for the live invariant checker (internal/check).
// The visitors expose read-only views of the process table and grant
// tables in deterministic (slot, grant-ID) order, so checkers attached to
// the scheduler's step hook observe identical state on identically-seeded
// runs.

// Version counts the writes to everything the visitors, LookupLabel and
// Alive read: the process table (spawn, reap, relabel) and the grant
// tables (create, revoke). While it stands still they answer the same,
// which lets the checker skip rescanning an unchanged kernel. The
// contract is on the writer: new code that writes one of those fields
// must bump it.
func (k *Kernel) Version() uint64 { return k.version }

// ProcInfo is a read-only snapshot of one process-table slot.
type ProcInfo struct {
	Slot   int
	Gen    int
	Ep     Endpoint
	Label  string
	Alive  bool
	Grants int // live entries in the instance's grant table
}

// VisitProcs calls fn for every process-table slot that has ever been
// used, in slot order. Dead instances are included (Alive=false) until
// their slot is reused, which is exactly what stale-state invariants need
// to see.
func (k *Kernel) VisitProcs(fn func(ProcInfo)) {
	for _, e := range k.slots {
		if e == nil {
			continue
		}
		fn(ProcInfo{
			Slot:   e.slot,
			Gen:    e.gen,
			Ep:     e.ep,
			Label:  e.label,
			Alive:  e.alive,
			Grants: len(e.grants),
		})
	}
}

// GrantInfo is a read-only snapshot of one memory grant.
type GrantInfo struct {
	Owner      Endpoint
	OwnerLabel string
	ID         GrantID
	To         Endpoint // grantee; Any means any process
	Access     GrantAccess
	Len        int // granted buffer length
}

// VisitGrants calls fn for every grant of every live process, in (slot,
// grant ID) order.
func (k *Kernel) VisitGrants(fn func(GrantInfo)) {
	for _, e := range k.slots {
		if e == nil || !e.alive || len(e.grants) == 0 {
			continue
		}
		ids := make([]GrantID, 0, len(e.grants))
		for id := range e.grants {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			g := e.grants[id]
			fn(GrantInfo{
				Owner:      e.ep,
				OwnerLabel: e.label,
				ID:         id,
				To:         g.to,
				Access:     g.access,
				Len:        len(g.buf),
			})
		}
	}
}

// DebugLeakGrantsOnDeath disables grant revocation in reap. It exists
// solely so tests can break the "grants die with their owner" kernel
// invariant and prove the live checker catches it; never enable it
// outside a test.
func (k *Kernel) DebugLeakGrantsOnDeath(leak bool) { k.debugLeakGrants = leak }
