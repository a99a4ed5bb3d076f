package simnet

import (
	"errors"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

func TestClock(t *testing.T) {
	c := NewClock(t0)
	if !c.Now().Equal(t0) {
		t.Errorf("Now = %v", c.Now())
	}
	c.Advance(time.Minute)
	if !c.Now().Equal(t0.Add(time.Minute)) {
		t.Errorf("after Advance: %v", c.Now())
	}
	c.Advance(-time.Hour)
	if !c.Now().Equal(t0.Add(time.Minute)) {
		t.Error("negative Advance must be ignored")
	}
	c.AdvanceTo(t0) // in the past
	if !c.Now().Equal(t0.Add(time.Minute)) {
		t.Error("AdvanceTo in the past must be ignored")
	}
	c.AdvanceTo(t0.Add(time.Hour))
	if !c.Now().Equal(t0.Add(time.Hour)) {
		t.Errorf("AdvanceTo: %v", c.Now())
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock(t0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Millisecond)
				_ = c.Now()
			}
		}()
	}
	wg.Wait()
	if got := c.Now().Sub(t0); got != 8*time.Second {
		t.Errorf("concurrent advances lost updates: %v", got)
	}
}

func newTestNet(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	n.AddSite("edge")
	n.AddSite("cloud")
	if err := n.Connect("edge", "cloud", Link{BytesPerSecond: 1e6, Latency: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConnectValidation(t *testing.T) {
	n := NewNetwork()
	n.AddSite("a")
	if err := n.Connect("a", "missing", Link{BytesPerSecond: 1}); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("want ErrUnknownSite, got %v", err)
	}
	n.AddSite("b")
	if err := n.Connect("a", "b", Link{BytesPerSecond: 0}); err == nil {
		t.Error("zero bandwidth must error")
	}
}

func TestTransferTime(t *testing.T) {
	n := newTestNet(t)
	// 1 MB at 1 MB/s + 50ms latency = 1.05s
	d, err := n.TransferTime("edge", "cloud", 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1050*time.Millisecond {
		t.Errorf("TransferTime = %v", d)
	}
	// Local transfer is free.
	d, err = n.TransferTime("edge", "edge", 1e9)
	if err != nil || d != 0 {
		t.Errorf("local transfer: %v, %v", d, err)
	}
	if _, err := n.TransferTime("edge", "nowhere", 1); !errors.Is(err, ErrNoRoute) {
		t.Errorf("want ErrNoRoute, got %v", err)
	}
}

func TestTransferAccounting(t *testing.T) {
	n := newTestNet(t)
	for i := 0; i < 3; i++ {
		if _, err := n.Transfer("edge", "cloud", 1000); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Transfer("cloud", "edge", 500); err != nil {
		t.Fatal(err)
	}
	up := n.LinkStats("edge", "cloud")
	if up.Transfers != 3 || up.Bytes != 3000 {
		t.Errorf("uplink stats = %+v", up)
	}
	down := n.LinkStats("cloud", "edge")
	if down.Transfers != 1 || down.Bytes != 500 {
		t.Errorf("downlink stats = %+v", down)
	}
	total := n.TotalStats()
	if total.Transfers != 4 || total.Bytes != 3500 {
		t.Errorf("total stats = %+v", total)
	}
	// Local transfers are not metered.
	if _, err := n.Transfer("edge", "edge", 1e9); err != nil {
		t.Fatal(err)
	}
	if n.TotalStats().Bytes != 3500 {
		t.Error("local transfer was metered")
	}
	n.ResetStats()
	if n.TotalStats() != (TransferStats{}) {
		t.Error("ResetStats did not clear")
	}
}

func TestSitesDeterministicOrder(t *testing.T) {
	n := NewNetwork()
	for _, s := range []SiteID{"z", "a", "m"} {
		n.AddSite(s)
	}
	got := n.Sites()
	if len(got) != 3 || got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Errorf("Sites = %v", got)
	}
}

func TestTransferConcurrent(t *testing.T) {
	n := newTestNet(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				_, _ = n.Transfer("edge", "cloud", 10)
			}
		}()
	}
	wg.Wait()
	total := n.TotalStats()
	if total.Transfers != 2000 || total.Bytes != 20000 {
		t.Errorf("concurrent accounting lost updates: %+v", total)
	}
}

func TestFailEveryInjectsTransientFailures(t *testing.T) {
	n := NewNetwork()
	n.AddSite("edge")
	n.AddSite("cloud")
	if err := n.Connect("edge", "cloud", Link{BytesPerSecond: 1e6, FailEvery: 3}); err != nil {
		t.Fatal(err)
	}
	var failures int
	for i := 1; i <= 9; i++ {
		_, err := n.Transfer("edge", "cloud", 100)
		if i%3 == 0 {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("attempt %d: want ErrTransient, got %v", i, err)
			}
			failures++
		} else if err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	st := n.LinkStats("edge", "cloud")
	if st.Attempts != 9 || st.Failures != 3 || st.Transfers != 6 {
		t.Errorf("stats = %+v, want 9 attempts / 3 failures / 6 transfers", st)
	}
	// Failed attempts meter no bytes.
	if st.Bytes != 600 {
		t.Errorf("bytes = %d, want 600", st.Bytes)
	}
	total := n.TotalStats()
	if total.Failures != 3 || total.Attempts != 9 {
		t.Errorf("total = %+v", total)
	}
}
