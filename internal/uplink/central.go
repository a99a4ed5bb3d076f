package uplink

import (
	"sync"
	"time"

	"megadata/internal/flowdb"
	"megadata/internal/flowtree"
)

// Central is the receiving end of the hops that terminate at the central
// site. Their Deliver closures park decoded summaries here as FlowDB rows,
// and the owner flushes them with one InsertBatch once the export round
// that shipped them is over. A single writer per round is what keeps
// standing views incremental: concurrent per-frame Inserts reach a view out
// of generation order, and it falls back to re-merging everything it covers.
type Central struct {
	db *flowdb.DB
	// budget re-compresses each row (0 = keep what arrived); retained says
	// the hops keep the decode as their next delta base, so a budgeted row
	// must be a clone.
	budget   int
	retained bool

	mu   sync.Mutex
	rows []flowdb.Row
}

// NewCentral builds the central receiving end over db.
func NewCentral(db *flowdb.DB, budget int, retained bool) *Central {
	return &Central{db: db, budget: budget, retained: retained}
}

// Deliver parks one decoded summary as location's row for the next Flush.
// Safe for concurrent use by the hops of one export round.
func (c *Central) Deliver(location string, start time.Time, width time.Duration, tree *flowtree.Tree) error {
	if c.budget > 0 {
		if c.retained {
			tree = tree.Clone()
		}
		if err := tree.SetBudget(c.budget); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows = append(c.rows, flowdb.Row{Location: location, Start: start, Width: width, Tree: tree})
	return nil
}

// Flush indexes everything parked since the last Flush under one FlowDB
// generation; a row delivered while it runs waits for the next.
func (c *Central) Flush() error {
	c.mu.Lock()
	rows := c.rows
	c.rows = nil
	c.mu.Unlock()
	return c.db.InsertBatch(rows)
}
