package resilientos

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientos/internal/fi"
	"resilientos/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// causalTraceEvents runs a small fixed network workload under periodic
// driver kills with the full causal trace (spans, links, IPC edges)
// captured in memory, and returns the event stream. Sinks in also see
// the same stream.
func causalTraceEvents(t *testing.T, seed int64, size int64, also ...obs.Sink) []obs.Event {
	t.Helper()
	sink := &obs.SliceSink{}
	rec := obs.NewRecorder(append([]obs.Sink{sink}, also...)...)
	sys := New(Config{
		Seed:        seed,
		DisableDisk: true,
		DisableChar: true,
		Obs:         rec,
	})
	sys.Run(3 * time.Second)
	sys.ServeFile(80, seed, size)
	var w WgetResult
	sys.Wget(DriverRTL8139, 80, seed, size, &w)
	sys.Every(400*time.Millisecond, func() {
		if w.Duration == 0 && w.Err == nil {
			sys.KillDriver(DriverRTL8139)
		}
	})
	sys.Run(2 * time.Minute)
	if !w.OK {
		t.Fatalf("wget failed under kills: %d bytes err=%v", w.Bytes, w.Err)
	}
	return sink.Events()
}

// TestSliceSinkMatchesJSONLStream cross-checks the chunked SliceSink
// against the streaming reference: an observed run long enough to fill
// several chunks feeds both, and the retained events, encoded, must be
// byte-equal to what the JSONL sink wrote as they happened.
func TestSliceSinkMatchesJSONLStream(t *testing.T) {
	var stream bytes.Buffer
	jsonl := obs.NewJSONLSink(&stream)
	events := causalTraceEvents(t, 11, 256<<10, jsonl)
	if jsonl.Err() != nil {
		t.Fatal(jsonl.Err())
	}
	if len(events) < 2*4096 {
		t.Fatalf("only %d events: the run must cross two chunk boundaries", len(events))
	}
	var got []byte
	for _, e := range events {
		got = obs.AppendJSONL(got, e)
	}
	if !bytes.Equal(got, stream.Bytes()) {
		t.Fatalf("retained trace (%d events, %d B) differs from the JSONL stream (%d B)",
			len(events), len(got), stream.Len())
	}
}

// TestSpanTreeWellFormedSWIFI is the property test: across a 64-seed
// SWIFI sweep against the network driver, every cell's span forest must
// be structurally well-formed — unique begins, at most one terminal per
// span, parents that exist and precede their children, one root per
// trace. Crashed cells must also surface orphaned-by-crash spans
// somewhere in the sweep (a crash with no request in flight legitimately
// orphans nothing, so the orphan assertion is aggregate).
func TestSpanTreeWellFormedSWIFI(t *testing.T) {
	const seeds = 64
	var (
		mu       sync.Mutex
		crashes  int
		orphans  int
		episodes int
	)
	t.Run("sweep", func(t *testing.T) {
		for seed := int64(1); seed <= seeds; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				sink := &obs.SliceSink{}
				rec := obs.NewRecorder(sink)
				// Per-frame IPC kinds dominate volume and carry no span
				// structure; the forest check only needs the span kinds.
				rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
				sys := New(Config{
					Seed:        seed,
					DisableDisk: true,
					DisableChar: true,
					Obs:         rec,
				})
				sys.Run(3 * time.Second)
				sys.ServeFile(80, seed, 4<<20)
				var w WgetResult
				sys.Wget(DriverRTL8139, 80, seed, 4<<20, &w)

				injector := fi.New(sys.Env.Rand())
				injected, stall := 0, 0
				for injected < 8 && stall < 400 {
					sys.Run(50 * time.Millisecond)
					stall++
					vm := sys.DriverVM(DriverRTL8139)
					if vm == nil || sys.RS.ServiceEndpoint(DriverRTL8139) < 0 {
						continue // down or restarting: nothing to mutate
					}
					injector.InjectRandom(vm.Writable())
					injected++
					stall = 0
				}
				sys.Run(10 * time.Second) // let the last crash resolve

				events := sink.Events()
				forest := obs.BuildForest(events)
				if problems := forest.Check(); len(problems) > 0 {
					for _, p := range problems {
						t.Errorf("span forest: %s", p)
					}
				}

				cellCrashes, cellOrphans, cellEpisodes := 0, 0, 0
				for _, e := range sys.RS.Events() {
					if e.Label == DriverRTL8139 {
						cellCrashes++
					}
				}
				for _, e := range events {
					switch {
					case e.Kind == obs.KindSpanOrphan:
						cellOrphans++
					case e.Kind == obs.KindSpanBegin && strings.HasPrefix(e.Aux, "recover:"):
						cellEpisodes++
					}
				}
				if cellOrphans > 0 && cellCrashes == 0 {
					t.Errorf("%d orphaned spans but no crashes", cellOrphans)
				}
				mu.Lock()
				crashes += cellCrashes
				orphans += cellOrphans
				episodes += cellEpisodes
				mu.Unlock()
			})
		}
	})
	t.Logf("sweep: %d crashes, %d orphaned spans, %d recovery episodes across %d seeds",
		crashes, orphans, episodes, seeds)
	if crashes == 0 {
		t.Fatal("SWIFI sweep produced no crashes — injections not landing")
	}
	if orphans == 0 {
		t.Error("no orphaned-by-crash spans anywhere in the sweep")
	}
	if episodes == 0 {
		t.Error("no recovery-episode spans anywhere in the sweep")
	}
}
