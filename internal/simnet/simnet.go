// Package simnet is the simulated wide-area network substrate. The paper's
// transfer-optimization story (Section VII) is measured in transferred bytes
// and query latency; simnet provides exactly those quantities: named sites,
// links with bandwidth and propagation latency, byte-metered transfers, and
// a virtual clock so experiments run deterministically and faster than real
// time.
package simnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Clock is a monotonically advancing virtual clock shared by a simulation.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock builds a clock starting at start.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative d is ignored).
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// AdvanceTo moves the clock to t if t is in the future.
func (c *Clock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

// SiteID names a site (data store location) in the simulated network.
type SiteID string

// Link describes one directed link's characteristics.
type Link struct {
	// BytesPerSecond is the link bandwidth.
	BytesPerSecond float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// FailEvery injects deterministic transient failures: every FailEvery-th
	// transfer attempt on the link (the 2nd, 4th, ... for FailEvery=2)
	// fails with ErrTransient before any byte is metered. 0 disables
	// injection. Exporters are expected to retry from local retention —
	// the failure is an event on the link, not a topology change.
	FailEvery int
}

// Errors returned by the network.
var (
	ErrUnknownSite = errors.New("simnet: unknown site")
	ErrNoRoute     = errors.New("simnet: no route between sites")
	// ErrTransient marks an injected transient transfer failure
	// (Link.FailEvery): the link is still up and a retry may succeed.
	ErrTransient = errors.New("simnet: transient transfer failure")
)

// TransferStats accumulates per-link traffic accounting.
type TransferStats struct {
	// Attempts counts all transfer attempts, including failed ones.
	Attempts uint64
	// Transfers counts completed transfers; Bytes and Time cover only
	// these.
	Transfers uint64
	// Failures counts attempts that failed with ErrTransient.
	Failures uint64
	Bytes    uint64
	// Time is the summed transfer durations (serialization + latency).
	Time time.Duration
}

// Network is a set of sites connected by directed links. All methods are
// safe for concurrent use.
type Network struct {
	mu    sync.Mutex
	sites map[SiteID]bool
	links map[[2]SiteID]Link
	stats map[[2]SiteID]*TransferStats
	total TransferStats
}

// NewNetwork builds an empty network.
func NewNetwork() *Network {
	return &Network{
		sites: make(map[SiteID]bool),
		links: make(map[[2]SiteID]Link),
		stats: make(map[[2]SiteID]*TransferStats),
	}
}

// AddSite registers a site. Adding an existing site is a no-op.
func (n *Network) AddSite(id SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sites[id] = true
}

// Sites returns the registered sites in deterministic order.
func (n *Network) Sites() []SiteID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]SiteID, 0, len(n.sites))
	for s := range n.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Connect installs a symmetric pair of links between a and b.
func (n *Network) Connect(a, b SiteID, link Link) error {
	if link.BytesPerSecond <= 0 {
		return errors.New("simnet: link bandwidth must be positive")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.sites[a] || !n.sites[b] {
		return fmt.Errorf("%w: %s or %s", ErrUnknownSite, a, b)
	}
	n.links[[2]SiteID{a, b}] = link
	n.links[[2]SiteID{b, a}] = link
	return nil
}

// duration is the time moving bytes across the link takes: propagation
// latency plus serialization at the link bandwidth. TransferTime (planning)
// and Transfer (accounting) both use it.
func (l Link) duration(bytes uint64) time.Duration {
	return l.Latency + time.Duration(float64(bytes)/l.BytesPerSecond*float64(time.Second))
}

// TransferTime computes the duration of moving bytes from a to b without
// performing the transfer: latency + bytes/bandwidth. Local "transfers"
// (a == b) are free.
func (n *Network) TransferTime(a, b SiteID, bytes uint64) (time.Duration, error) {
	if a == b {
		return 0, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	link, ok := n.links[[2]SiteID{a, b}]
	if !ok {
		return 0, fmt.Errorf("%w: %s -> %s", ErrNoRoute, a, b)
	}
	return link.duration(bytes), nil
}

// Transfer meters a transfer of bytes from a to b and returns its duration.
// With Link.FailEvery set, every FailEvery-th attempt fails with
// ErrTransient and meters nothing but the failed attempt.
func (n *Network) Transfer(a, b SiteID, bytes uint64) (time.Duration, error) {
	if a == b {
		return 0, nil
	}
	n.mu.Lock()
	link, ok := n.links[[2]SiteID{a, b}]
	if !ok {
		n.mu.Unlock()
		return 0, fmt.Errorf("%w: %s -> %s", ErrNoRoute, a, b)
	}
	key := [2]SiteID{a, b}
	st, have := n.stats[key]
	if !have {
		st = &TransferStats{}
		n.stats[key] = st
	}
	st.Attempts++
	n.total.Attempts++
	if link.FailEvery > 0 && st.Attempts%uint64(link.FailEvery) == 0 {
		st.Failures++
		n.total.Failures++
		n.mu.Unlock()
		return 0, fmt.Errorf("%w: %s -> %s attempt %d", ErrTransient, a, b, st.Attempts)
	}
	d := link.duration(bytes)
	st.Transfers++
	st.Bytes += bytes
	st.Time += d
	n.total.Transfers++
	n.total.Bytes += bytes
	n.total.Time += d
	n.mu.Unlock()
	return d, nil
}

// LinkStats returns a copy of the accounting for the directed link a->b.
func (n *Network) LinkStats(a, b SiteID) TransferStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.stats[[2]SiteID{a, b}]; ok {
		return *st
	}
	return TransferStats{}
}

// TotalStats returns a copy of the whole-network accounting.
func (n *Network) TotalStats() TransferStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.total
}

// ResetStats clears all accounting (between experiment runs).
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = make(map[[2]SiteID]*TransferStats)
	n.total = TransferStats{}
}
