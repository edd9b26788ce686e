package sim_test

import (
	"fmt"
	"testing"
	"time"

	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// radioWorkload runs a 4x4 grid of transceivers, every one in range of
// every other and placed round-robin so that nearly every link crosses
// shards, each broadcasting a frame every few tens of milliseconds. It
// returns what each node decoded, in node order.
func radioWorkload(shards int) []string {
	params := radio.DefaultParams()
	k := sim.NewKernel(sim.KernelConfig{
		Seed: 5, Shards: shards, Propagation: params.PropDelay, TxTurnaround: time.Millisecond,
	})
	k.ForceParallelDispatch()
	tp := topo.Grid(4, 4, 4)
	for i, id := range tp.IDs() {
		k.AddNode(id, i%shards)
	}
	ch := radio.NewChannel(k, tp, params)
	logs := map[uint32]*[]string{}
	for _, id := range tp.IDs() {
		id, port, log := id, k.Port(id), new([]string)
		logs[id] = log
		tr := ch.Attach(id, func(from uint32, b []byte) {
			*log = append(*log, fmt.Sprintf("n%d %v <-%d %s", id, port.Now(), from, b))
		})
		frame := []byte(fmt.Sprintf("frame-from-%02d", id))
		var tx sim.Event
		tx.Bind(func() {
			if !tr.Busy() {
				tr.Transmit(frame)
			}
		})
		step := time.Duration(30+7*id) * time.Millisecond
		k.Every(step, step, func() { port.ArmTx(&tx, time.Millisecond) })
	}
	k.RunUntil(5 * time.Second)
	var out []string
	for _, id := range tp.IDs() {
		out = append(out, *logs[id]...)
	}
	return out
}

// The reception free lists are per shard and unlocked: a sender takes from
// its own shard's list, the receiver returns to its own. Under -race with
// workers forced on this fails if a list is ever touched by two shards, and
// in any build if a recycled record corrupts a run.
func TestReceptionPoolsAcrossShards(t *testing.T) {
	base := radioWorkload(1)
	if len(base) < 200 {
		t.Fatalf("workload decoded only %d frames", len(base))
	}
	for _, shards := range []int{2, 4} {
		got := radioWorkload(shards)
		if len(got) != len(base) {
			t.Fatalf("shards=%d: %d frames decoded, want %d", shards, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("shards=%d: diverges at %d: %q != %q", shards, i, got[i], base[i])
			}
		}
	}
}
