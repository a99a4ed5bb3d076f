package uplink

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowtree"
	"megadata/internal/simnet"
	"megadata/internal/storage/diskio"
)

var (
	t0       = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	linkUp   = simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond}
	linkDown = simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond, FailEvery: 1}
	linkFlap = simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond, FailEvery: 2}
)

// epochTree is epoch e's sealed summary: twenty stable flows plus one whose
// byte count is the epoch number + 1, so consecutive epochs differ by one
// entry (a delta pays) and the delivered total identifies the epoch.
func epochTree(t testing.TB, e int) *flowtree.Tree {
	t.Helper()
	tr, err := flowtree.New(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tr.Add(flow.Record{Key: flow.Exact(flow.ProtoTCP, flow.IPv4(0x0A000001+i), 0xC0A80101, 40000, 443), Packets: 1, Bytes: 1000})
	}
	tr.Add(flow.Record{Key: flow.Exact(flow.ProtoUDP, 0x0B000001, 0xC0A80101, 53, 53), Packets: 1, Bytes: uint64(e + 1)})
	return tr
}

// hop is one Uplink over a two-site simnet, recording what the receiver got.
type hop struct {
	t        *testing.T
	net      *simnet.Network
	up       *Uplink
	exported int // epochs sealed so far

	mu  sync.Mutex
	got []int // delivered epochs, in arrival order
}

// evictRule builds a hop's Evict from the hop (for rules that track the
// newest sealed epoch).
type evictRule func(h *hop) func(time.Time, uint64) bool

func never(*hop) func(time.Time, uint64) bool {
	return func(time.Time, uint64) bool { return false }
}

// keepLast is flowstream's rule in miniature: an epoch older than the last n
// sealed has left the sender's retention ring.
func keepLast(n int) evictRule {
	return func(h *hop) func(time.Time, uint64) bool {
		return func(start time.Time, _ uint64) bool {
			return int(start.Sub(t0)/time.Minute) < h.exported-n
		}
	}
}

// queueBytes is the fleet's rule: evict oldest-first while the in-memory
// queue exceeds the cap.
func queueBytes(limit uint64) evictRule {
	return func(*hop) func(time.Time, uint64) bool {
		return func(_ time.Time, queued uint64) bool { return queued > limit }
	}
}

func newHop(t *testing.T, delta bool, spillDir string, fs diskio.FS, rule evictRule) *hop {
	t.Helper()
	h := &hop{t: t, net: simnet.NewNetwork()}
	h.net.AddSite("a")
	h.net.AddSite("b")
	h.link(linkUp)
	h.up = New(Config{
		Name: "a", Delta: delta, MaxChurn: 0.5, SpillDir: spillDir, FS: fs,
		Transfer: func(n uint64) error {
			_, err := h.net.Transfer("a", "b", n)
			return err
		},
		Deliver: func(start time.Time, width time.Duration, tree *flowtree.Tree) error {
			if width != time.Minute {
				t.Errorf("delivered width %v", width)
			}
			e := int(start.Sub(t0) / time.Minute)
			if got, want := tree.Total().Bytes, uint64(20*1000+e+1); got != want {
				t.Errorf("epoch %d decoded to %d bytes, want %d", e, got, want)
			}
			h.mu.Lock()
			h.got = append(h.got, e)
			h.mu.Unlock()
			return nil
		},
		Evict: rule(h),
	})
	return h
}

func (h *hop) link(l simnet.Link) {
	h.t.Helper()
	if err := h.net.Connect("a", "b", l); err != nil {
		h.t.Fatal(err)
	}
}

func (h *hop) export() error {
	e := h.exported
	h.exported++
	_, err := h.up.Export(epochTree(h.t, e), t0.Add(time.Duration(e)*time.Minute), time.Minute)
	return err
}

func (h *hop) segments(dir string) []string {
	h.t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "a", "*.seg"))
	if err != nil {
		h.t.Fatal(err)
	}
	return segs
}

// TestUplink scripts the hop's failure handling. Each step is one action;
// "!" after an action means it must return an error.
func TestUplink(t *testing.T) {
	frame := uint64(len(epochTree(t, 0).AppendBinary(nil)))
	faulty := func() diskio.FS { return diskio.NewFaulty(diskio.OS{}, diskio.FaultPlan{FailEveryWrite: 1}) }
	cases := []struct {
		name  string
		delta bool
		spill bool
		fs    func() diskio.FS
		rule  evictRule
		steps []string
		// after the script:
		got     []int
		pending int
		stats   Stats
	}{
		{
			name: "transient failures re-queue in stream order", delta: true, rule: never,
			steps: []string{"flap", "export", "export", "export", "export", "export", "export", "up", "retry"},
			got:   []int{0, 1, 2, 3, 4, 5},
		},
		{
			// The undecodable frame is consumed (a retry would see the same
			// bytes) and is not a counted drop; the epoch behind it stays
			// queued and drains on the next attempt.
			name: "undecodable full frame drops only itself", rule: never,
			steps: []string{"down", "export", "export", "garble", "up", "retry!", "pending=1", "retry"},
			got:   []int{1},
		},
		{
			// Deltas chained off the bad frame can never apply: they drop
			// (counted) and the chain tail resets, so epoch 3 ships full and
			// decodes against no base.
			name: "undecodable frame drops chained deltas and resets the chain", delta: true, rule: never,
			steps: []string{"down", "export", "export", "export", "garble", "up", "retry!", "pending=0", "export"},
			got:   []int{3},
			stats: Stats{DroppedChain: 2},
		},
		{
			name: "retention rule drops evicted epochs", rule: keepLast(2),
			steps: []string{"down", "export", "export", "export", "export", "pending=2", "up", "retry"},
			got:   []int{2, 3},
			stats: Stats{DroppedEvicted: 2},
		},
		{
			// Epoch 0 is evicted at the third seal; the deltas behind it are
			// chained to it and drop too, and the reset chain ships epoch 3
			// as a full frame.
			name: "retention rule drops the delta chain behind an evicted frame", delta: true, rule: keepLast(2),
			steps: []string{"down", "export", "export", "export", "pending=0", "up", "export"},
			got:   []int{3},
			stats: Stats{DroppedEvicted: 3},
		},
		{
			name: "queue-byte rule evicts oldest until the rest fits", rule: queueBytes(2*frame + frame/2),
			steps: []string{"down", "export", "export", "export", "export", "pending=2", "up", "retry"},
			got:   []int{2, 3},
			stats: Stats{DroppedEvicted: 2},
		},
		{
			// A frame over the cap still ships when the link lets it through:
			// the cap runs after the ship, not before it.
			name: "cap applies only to what the link left behind", rule: queueBytes(1),
			steps: []string{"export", "export"},
			got:   []int{0, 1},
		},
		{
			name: "evicted frames spill, re-ship from disk in order and are discarded", delta: true, spill: true, rule: keepLast(2),
			steps: []string{"down", "export", "export", "export", "export", "pending=4", "segments=2", "up", "retry", "segments=0"},
			got:   []int{0, 1, 2, 3},
			stats: Stats{SpilledFrames: 2},
		},
		{
			name: "spill-write failure falls back to a counted drop", spill: true, fs: faulty, rule: keepLast(2),
			steps: []string{"down", "export", "export", "export", "export", "pending=2", "up", "retry"},
			got:   []int{2, 3},
			stats: Stats{DroppedEvicted: 2, SpillErrors: 2},
		},
		{
			// Checksum-refused, counted, never handed to the tree decoder
			// (Deliver would flag the wrong total); the queue behind it
			// drains clean.
			name: "corrupt spilled frame is counted, never decoded", spill: true, rule: keepLast(2),
			steps: []string{"down", "export", "export", "export", "export", "flipseg", "up", "retry!", "pending=3", "retry"},
			got:   []int{1, 2, 3},
			stats: Stats{DroppedEvicted: 1, SpilledFrames: 2, CorruptSpills: 1},
		},
		{
			name: "missing spilled frame drops the deltas chained off it", delta: true, spill: true, rule: keepLast(2),
			steps: []string{"down", "export", "export", "export", "export", "rmseg", "up", "retry!", "pending=0", "segments=0", "export"},
			got:   []int{4},
			stats: Stats{DroppedChain: 3, DroppedEvicted: 1, SpilledFrames: 2, CorruptSpills: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.spill {
				dir = t.TempDir()
			}
			var fs diskio.FS
			if tc.fs != nil {
				fs = tc.fs()
			}
			h := newHop(t, tc.delta, dir, fs, tc.rule)
			for i, step := range tc.steps {
				var err error
				wantErr := step[len(step)-1] == '!'
				if wantErr {
					step = step[:len(step)-1]
				}
				switch step {
				case "up":
					h.link(linkUp)
				case "down":
					h.link(linkDown)
				case "flap":
					h.link(linkFlap)
				case "export":
					err = h.export()
				case "retry":
					_, err = h.up.Retry()
				case "garble": // corrupt the oldest queued frame in memory
					h.up.mu.Lock()
					h.up.pending[0].wire = []byte("not a flowtree")
					h.up.mu.Unlock()
				case "flipseg": // flip the last payload byte of the oldest spilled segment
					seg := h.segments(dir)[0]
					blob, rerr := os.ReadFile(seg)
					if rerr != nil {
						t.Fatal(rerr)
					}
					blob[len(blob)-1] ^= 0xFF
					if werr := os.WriteFile(seg, blob, 0o644); werr != nil {
						t.Fatal(werr)
					}
				case "rmseg":
					if rerr := os.Remove(h.segments(dir)[0]); rerr != nil {
						t.Fatal(rerr)
					}
				default: // "pending=N" / "segments=N" assert mid-script state
					what, n, _ := strings.Cut(step, "=")
					want, aerr := strconv.Atoi(n)
					got := map[string]func() int{
						"pending":  h.up.Pending,
						"segments": func() int { return len(h.segments(dir)) },
					}[what]
					if aerr != nil || got == nil {
						t.Fatalf("unknown step %q", step)
					}
					if got() != want {
						t.Fatalf("step %d: %s=%d, want %d", i, what, got(), want)
					}
				}
				if (err != nil) != wantErr {
					t.Fatalf("step %d (%s): err=%v, want error=%v", i, step, err, wantErr)
				}
			}
			if !reflect.DeepEqual(h.got, tc.got) {
				t.Errorf("delivered epochs %v, want %v", h.got, tc.got)
			}
			if h.up.Pending() != tc.pending {
				t.Errorf("pending=%d, want %d", h.up.Pending(), tc.pending)
			}
			st := h.up.Stats()
			// Frame sizes vary (full vs delta); only their presence is fixed.
			if (st.SpilledBytes > 0) != (st.SpilledFrames > 0) {
				t.Errorf("spilled %d frames but %d bytes", st.SpilledFrames, st.SpilledBytes)
			}
			st.SpilledBytes = 0
			if st != tc.stats {
				t.Errorf("stats %+v, want %+v", st, tc.stats)
			}
		})
	}
}

// TestExportRacesRetry drives Export against a concurrent Retry loop over a
// flapping link with delta frames: the ship lock must keep the stream in
// order (an out-of-order delta fails to decode) and lose nothing.
func TestExportRacesRetry(t *testing.T) {
	const epochs = 60
	h := newHop(t, true, "", nil, never)
	h.link(linkFlap)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := h.up.Retry(); err != nil {
					t.Errorf("retry: %v", err)
					return
				}
			}
		}
	}()
	for e := 0; e < epochs; e++ {
		if err := h.export(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	h.link(linkUp)
	if _, err := h.up.Retry(); err != nil {
		t.Fatal(err)
	}
	if len(h.got) != epochs || h.up.Pending() != 0 || h.up.Stats() != (Stats{}) {
		t.Fatalf("delivered %d/%d, pending=%d, stats %+v", len(h.got), epochs, h.up.Pending(), h.up.Stats())
	}
	for i, e := range h.got {
		if e != i {
			t.Fatalf("delivery %d was epoch %d: stream out of order", i, e)
		}
	}
}
