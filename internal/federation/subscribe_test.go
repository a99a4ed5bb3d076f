package federation

import (
	"bytes"
	"testing"

	"megadata/internal/flow"
	"megadata/internal/flowql"
)

// TestFleetSubscribe registers a standing fleet-wide query before any
// epoch ships and checks the maintained result converges on the ingested
// total as top-level frames land. The root indexes an epoch's frames as
// one batch, so each epoch pushes one update, equal to the cumulative
// fleet total.
func TestFleetSubscribe(t *testing.T) {
	fl, err := NewFleet(FleetConfig{Fanout: []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := fl.Subscribe(`SELECT QUERY FROM ALL`, flowql.SubConfig{Depth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var want flow.Counters
	for e := 0; e < 2; e++ {
		want.Add(ingestFleet(t, fl, e, 200))
		if err := fl.EndEpoch(); err != nil {
			t.Fatal(err)
		}
		var last *flowql.Notification
		for drained := false; !drained; {
			select {
			case n := <-sub.Updates():
				last = n
			default:
				drained = true
			}
		}
		if last == nil {
			t.Fatalf("epoch %d: no notification", e)
		}
		if last.Result.Counters != want {
			t.Errorf("epoch %d: view shows %+v, want %+v", e, last.Result.Counters, want)
		}
		fresh, err := flowql.Run(fl.DB, `SELECT QUERY FROM ALL`)
		if err != nil {
			t.Fatal(err)
		}
		if last.Result.Counters != fresh.Counters {
			t.Errorf("epoch %d: pushed %+v != fresh %+v", e, last.Result.Counters, fresh.Counters)
		}
	}
	// Each epoch's top-level frames (2 children) are one insert, and the
	// view folded each batch in without a rebuild.
	if rc := sub.View().Recomputes(); rc != 1 {
		t.Errorf("view recomputed %d times, want 1 (initial build only)", rc)
	}
	if st := sub.Stats(); st.Delivered != 2 || st.Dropped != 0 {
		t.Errorf("stats %+v, want 2 delivered", st)
	}
}

// TestFleetViewStaysIncremental pins the root's single writer: four
// top-level uplinks deliver concurrently every epoch, yet a standing
// fleet-wide view never falls back to a rebuild (concurrent per-frame
// inserts would hand it generations out of order) and matches a fresh
// Select after every epoch.
func TestFleetViewStaysIncremental(t *testing.T) {
	fl, err := NewFleet(FleetConfig{Fanout: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := fl.Subscribe(`SELECT QUERY FROM ALL`, flowql.SubConfig{Policy: flowql.PolicyDrop, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for e := 0; e < 20; e++ {
		ingestFleet(t, fl, e, 100)
		if err := fl.EndEpoch(); err != nil {
			t.Fatal(err)
		}
		if rc := sub.View().Recomputes(); rc != 1 {
			t.Fatalf("epoch %d: view recomputed %d times, want 1 (initial build only)", e, rc)
		}
		if st := sub.Stats(); st.Delivered+st.Dropped != uint64(e+1) {
			t.Fatalf("epoch %d: %d updates so far, want one per epoch", e, st.Delivered+st.Dropped)
		}
		got, rows, err := sub.View().Result()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fl.CentralTree()
		if err != nil {
			t.Fatal(err)
		}
		if rows != 4*(e+1) || !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("epoch %d: view over %d rows differs from a fresh Select over %d", e, rows, 4*(e+1))
		}
	}
}
