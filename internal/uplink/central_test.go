package uplink

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"megadata/internal/flowdb"
)

// TestCentralOneGenerationPerFlush: eight hops deliver concurrently, the
// FlowDB sees nothing until Flush and then one generation — a standing view
// folds the whole round in as one delta, without a rebuild.
func TestCentralOneGenerationPerFlush(t *testing.T) {
	db := flowdb.New()
	updates := 0
	view, err := db.Subscribe(flowdb.ViewQuery{From: t0, To: t0.Add(time.Hour)},
		flowdb.WithViewUpdateHook(func(*flowdb.View) { updates++ }))
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	c := NewCentral(db, 0, true)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for site := 0; site < 8; site++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := t0.Add(time.Duration(round) * time.Minute)
				if err := c.Deliver("s"+strconv.Itoa(site), start, time.Minute, epochTree(t, round)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got := db.Len(); got != 8*round {
			t.Fatalf("round %d: %d rows indexed before Flush, want %d", round, got, 8*round)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := db.Len(); got != 8*(round+1) {
			t.Fatalf("round %d: %d rows after Flush, want %d", round, got, 8*(round+1))
		}
		if updates != round+1 || view.Recomputes() != 1 {
			t.Fatalf("round %d: %d view updates, %d recomputes; want %d and 1", round, updates, view.Recomputes(), round+1)
		}
	}
	if err := c.Flush(); err != nil || updates != 3 {
		t.Fatalf("empty Flush: err %v, %d updates", err, updates)
	}
}

// TestCentralBudgetClonesRetainedDecode: with a central budget the row is
// compressed; when the hop retains the decode as its delta base the row is
// a clone and the decode stays as delivered.
func TestCentralBudgetClonesRetainedDecode(t *testing.T) {
	for _, retained := range []bool{true, false} {
		db := flowdb.New()
		c := NewCentral(db, 8, retained)
		decoded := epochTree(t, 0)
		before := decoded.Len()
		if err := c.Deliver("s0", t0, time.Minute, decoded); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		row := db.Rows()[0].Tree
		if row.Len() > 8 || row.Total() != decoded.Total() {
			t.Errorf("retained=%v: row has %d nodes, total %+v; want <= 8 and %+v", retained, row.Len(), row.Total(), decoded.Total())
		}
		if retained && (row == decoded || decoded.Len() != before) {
			t.Errorf("retained decode was compressed in place (%d -> %d nodes)", before, decoded.Len())
		}
		if !retained && row != decoded {
			t.Error("unretained decode was cloned for nothing")
		}
	}
}
