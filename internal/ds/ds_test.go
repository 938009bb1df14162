package ds

import (
	"bytes"
	"testing"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

func bootDS(t *testing.T) (*sim.Env, *kernel.Kernel, kernel.Endpoint) {
	t.Helper()
	env, k, _, ep := bootServer(t)
	return env, k, ep
}

// bootServer is bootDS that also returns the server handle, whose naming
// table VisitNames reads.
func bootServer(t *testing.T) (*sim.Env, *kernel.Kernel, *DS, kernel.Endpoint) {
	t.Helper()
	env := sim.NewEnv(1)
	k := kernel.New(env)
	d, ep, err := StartServer(k)
	if err != nil {
		t.Fatal(err)
	}
	return env, k, d, ep
}

// published returns the naming table's entry for name, or None.
func (d *DS) published(name string) kernel.Endpoint {
	got := kernel.None
	d.VisitNames(func(n string, ep kernel.Endpoint) {
		if n == name {
			got = ep
		}
	})
	return got
}

// spawnRS spawns a process with the publisher label "rs" running body.
func spawnRS(t *testing.T, k *kernel.Kernel, body func(c *kernel.Ctx)) {
	t.Helper()
	if _, err := k.Spawn("rs", kernel.Privileges{AllowAllIPC: true}, body); err != nil {
		t.Fatal(err)
	}
}

func TestPublishLookup(t *testing.T) {
	env, k, d, dsEp := bootServer(t)
	spawnRS(t, k, func(c *kernel.Ctx) {
		reply, err := c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "eth.rtl8139", Arg1: 4242})
		if err != nil || reply.Arg2 != proto.OK {
			t.Errorf("publish: %v %d", err, reply.Arg2)
		}
	})
	env.Run(2 * time.Second)
	if got := d.published("eth.rtl8139"); got != 4242 {
		t.Fatalf("eth.rtl8139 published as %d", got)
	}
	if got := d.published("nope"); got != kernel.None {
		t.Fatalf("nope published as %d", got)
	}
}

func TestPublishRequiresAuthority(t *testing.T) {
	env, k, dsEp := bootDS(t)
	var code int64
	k.Spawn("rogue", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		reply, err := c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "evil", Arg1: 1})
		if err != nil {
			t.Errorf("publish: %v", err)
			return
		}
		code = reply.Arg2
	})
	env.Run(time.Second)
	if code != proto.ErrPerm {
		t.Fatalf("code = %d, want ErrPerm", code)
	}
}

func TestSubscribeReceivesUpdates(t *testing.T) {
	env, k, dsEp := bootDS(t)
	var updates []string
	var eps []int64
	k.Spawn("inet", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		if _, err := c.SendRec(dsEp, kernel.Message{Type: proto.DSSubscribe, Name: "eth.*"}); err != nil {
			t.Errorf("subscribe: %v", err)
			return
		}
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.DSUpdate {
				updates = append(updates, m.Name)
				eps = append(eps, m.Arg1)
			}
		}
	})
	spawnRS(t, k, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "eth.rtl8139", Arg1: 7})
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "disk.sata", Arg1: 8})
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "eth.dp8390", Arg1: 9})
	})
	env.Run(3 * time.Second)
	if len(updates) != 2 || updates[0] != "eth.rtl8139" || updates[1] != "eth.dp8390" {
		t.Fatalf("updates = %v (disk.sata must not match eth.*)", updates)
	}
	if eps[0] != 7 || eps[1] != 9 {
		t.Fatalf("eps = %v", eps)
	}
}

func TestSubscribeReplaysCurrentMatches(t *testing.T) {
	env, k, dsEp := bootDS(t)
	spawnRS(t, k, func(c *kernel.Ctx) {
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "eth.a", Arg1: 1})
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "eth.b", Arg1: 2})
	})
	var updates []string
	k.Spawn("late", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		c.Sleep(time.Second) // subscribe after the publishes
		if _, err := c.SendRec(dsEp, kernel.Message{Type: proto.DSSubscribe, Name: "eth.*"}); err != nil {
			t.Errorf("subscribe: %v", err)
			return
		}
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.DSUpdate {
				updates = append(updates, m.Name)
			}
		}
	})
	env.Run(2 * time.Second)
	if len(updates) != 2 || updates[0] != "eth.a" || updates[1] != "eth.b" {
		t.Fatalf("replayed updates = %v", updates)
	}
}

func TestWithdrawNotifiesSubscribers(t *testing.T) {
	env, k, dsEp := bootDS(t)
	var gone []string
	k.Spawn("watcher", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		c.SendRec(dsEp, kernel.Message{Type: proto.DSSubscribe, Name: "*"})
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.DSUpdate && m.Arg1 == proto.InvalidEndpoint {
				gone = append(gone, m.Name)
			}
		}
	})
	spawnRS(t, k, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "drv", Arg1: 5})
		c.SendRec(dsEp, kernel.Message{Type: proto.DSWithdraw, Name: "drv"})
	})
	env.Run(2 * time.Second)
	if len(gone) != 1 || gone[0] != "drv" {
		t.Fatalf("withdrawals = %v", gone)
	}
}

func TestPrivateStoreRoundtrip(t *testing.T) {
	env, k, dsEp := bootDS(t)
	var got []byte
	k.Spawn("inet", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		reply, err := c.SendRec(dsEp, kernel.Message{
			Type: proto.DSStore, Name: "state", Payload: []byte("tcp tables"),
		})
		if err != nil || reply.Arg2 != proto.OK {
			t.Errorf("store: %v %d", err, reply.Arg2)
			return
		}
		reply, err = c.SendRec(dsEp, kernel.Message{Type: proto.DSRetrieve, Name: "state"})
		if err != nil || reply.Arg2 != proto.OK {
			t.Errorf("retrieve: %v %d", err, reply.Arg2)
			return
		}
		got = reply.Payload
	})
	env.Run(time.Second)
	if !bytes.Equal(got, []byte("tcp tables")) {
		t.Fatalf("got %q", got)
	}
}

func TestPrivateStoreAuthenticationByStableName(t *testing.T) {
	// A *restarted* instance with the same label can read the record; a
	// different label cannot (paper §5.3).
	env, k, dsEp := bootDS(t)
	k.Spawn("inet", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		c.SendRec(dsEp, kernel.Message{Type: proto.DSStore, Name: "state", Payload: []byte("secret")})
		c.Exit(0) // crash; state outlives the instance
	})
	var stranger int64
	k.Spawn("other", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		reply, err := c.SendRec(dsEp, kernel.Message{Type: proto.DSRetrieve, Name: "state"})
		if err != nil {
			t.Errorf("retrieve: %v", err)
			return
		}
		stranger = reply.Arg2
	})
	env.Run(2 * time.Second)
	// Restarted instance, same label.
	var got []byte
	k.Spawn("inet", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		reply, err := c.SendRec(dsEp, kernel.Message{Type: proto.DSRetrieve, Name: "state"})
		if err != nil || reply.Arg2 != proto.OK {
			t.Errorf("retrieve after restart: %v %d", err, reply.Arg2)
			return
		}
		got = reply.Payload
	})
	env.Run(time.Second)
	if stranger != proto.ErrNotFound {
		t.Fatalf("stranger got code %d, want ErrNotFound", stranger)
	}
	if !bytes.Equal(got, []byte("secret")) {
		t.Fatalf("restarted instance got %q", got)
	}
}

func TestSubscriberFollowsRestartedProcess(t *testing.T) {
	// A subscriber that is itself restarted keeps receiving updates at
	// its new endpoint because DS chases the stable label.
	env, k, dsEp := bootDS(t)
	secondGen := false
	var got []string
	body := func(c *kernel.Ctx) {
		if !secondGen {
			secondGen = true
			c.SendRec(dsEp, kernel.Message{Type: proto.DSSubscribe, Name: "eth.*"})
			c.Sleep(500 * time.Millisecond)
			c.Exit(0) // dies; a new instance takes over the label
		}
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.DSUpdate {
				got = append(got, m.Name)
			}
		}
	}
	k.Spawn("inet", kernel.Privileges{AllowAllIPC: true}, body)
	env.Schedule(time.Second, func() {
		k.Spawn("inet", kernel.Privileges{AllowAllIPC: true}, body)
	})
	spawnRS(t, k, func(c *kernel.Ctx) {
		c.Sleep(2 * time.Second)
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "eth.x", Arg1: 11})
	})
	env.Run(3 * time.Second)
	if len(got) != 1 || got[0] != "eth.x" {
		t.Fatalf("restarted subscriber got %v", got)
	}
}

func TestMatchPatterns(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"eth.*", "eth.rtl8139", true},
		{"eth.*", "eth.", true},
		{"eth.*", "disk.sata", false},
		{"*", "anything", true},
		{"drv?", "drv1", true},
		{"drv?", "drv12", false},
		{"exact", "exact", true},
	}
	for _, tc := range cases {
		if got := Match(tc.pat, tc.name); got != tc.want {
			t.Errorf("Match(%q, %q) = %v", tc.pat, tc.name, got)
		}
	}
}
