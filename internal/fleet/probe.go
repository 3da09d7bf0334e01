package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"harmonia/internal/device"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The heartbeat barrier's probes run in two stages. Each device answers
// its own commands on its own shell and control kernel, so the device
// side of a probe — the health check, plus the connection-table reads
// of a capture — shares nothing with another device's. The probe stage
// runs those on the ServeWorkers pool, each worker writing only its
// node's device, its replicas' captures and the node's slot. The apply
// stage then walks the probes in order on the serial path and applies
// every shared effect: the staged irq events, the miss/temperature
// bookkeeping and recovery, the staged trace events and, with the
// caller, failovers. Results are identical to probing serially.
//
// Only a node's first probe in a barrier is staged: a repeat (a gossip
// suspect escalated and then reached by the rotation in the same tick)
// depends on the first and runs serially at its turn.

// probeStage is one barrier's staged probes. list is the probe order
// (node indices); slots[k] holds the staged result of list[k] when that
// is the node's first probe (n set), and slots is empty when the list
// runs serially. While on, at maps a node index to its slot + 1, so
// onEvent can stage the irq events its probe raises.
type probeStage struct {
	list  []int
	slots []probeSlot
	at    []int32
	on    bool
	// next is the workers' shared cursor over slots; wg waits for the
	// workers the caller started.
	next atomic.Int64
	wg   sync.WaitGroup
}

// probeSlot is one staged probe: the node, the health check's
// outcome, the irq events it raised, and the command-path and
// control-track trace events it recorded.
type probeSlot struct {
	n         *Node
	ok        bool
	temp      uint32
	events    []device.Event
	cmd, ctrl obs.Buffer
}

// workers resolves ServeWorkers (0 = GOMAXPROCS).
func (c *Cluster) workers() int {
	if c.cfg.ServeWorkers > 0 {
		return c.cfg.ServeWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// stageMinEntries is the number of connection-table entries a list's
// due captures must hold before its probes fan out. Below it, waking a
// second worker costs more than the work it takes over: a health check
// and a small table's capture take microseconds, about what the wake-up
// takes. The result is identical either way.
const stageMinEntries = 8192

// stageProbes runs the device side of the first probe of each node in
// list on the worker pool. It runs nothing, and the whole list probes
// serially, when one worker is configured, fewer than two probes would
// stage, or the due captures hold fewer than stageMinEntries entries.
func (c *Cluster) stageProbes(now sim.Time, list []int) {
	st := &c.stage
	st.slots = st.slots[:0]
	workers := c.workers()
	if workers <= 1 || len(list) < 2 {
		return
	}
	entries := 0
	for _, i := range list {
		if n := c.nodes[i]; c.captureDue(n) {
			for _, r := range n.stateful {
				entries += r.flows.table.Len()
			}
		}
	}
	if entries < stageMinEntries {
		return
	}
	for len(st.at) < len(c.nodes) {
		st.at = append(st.at, 0)
	}
	staged := 0
	for _, i := range list {
		st.slots = append(st.slots, probeSlot{})
		s := &st.slots[len(st.slots)-1]
		if st.at[i] != 0 {
			continue // a repeat: probes serially at its turn
		}
		staged++
		st.at[i] = int32(len(st.slots))
		// The slot keeps its staging storage from earlier barriers.
		*s = probeSlot{n: c.nodes[i], events: s.events[:0], cmd: s.cmd, ctrl: s.ctrl}
	}
	if workers > staged {
		workers = staged
	}
	for len(c.tables) < workers {
		c.tables = append(c.tables, tableBufs{})
	}
	st.on = true
	st.next.Store(0)
	st.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go c.stageWork(now, w)
	}
	c.stageWork(now, 0)
	st.wg.Wait()
	st.on = false
	for _, i := range list {
		st.at[i] = 0
	}
}

// stageWork is one stage worker: it takes slots off the shared cursor
// and runs each staged probe's device side through worker w's read
// buffers. Worker 0 is the caller; the others signal the wait group.
func (c *Cluster) stageWork(now sim.Time, w int) {
	st := &c.stage
	if w > 0 {
		defer st.wg.Done()
	}
	for {
		k := st.next.Add(1) - 1
		if k >= int64(len(st.slots)) {
			return
		}
		if s := &st.slots[k]; s.n != nil {
			c.probeDevice(now, s, &c.tables[w])
		}
	}
}

// probeDevice is the device side of one staged probe, run on a stage
// worker: the health check and, when due, the capture of the node's
// connection tables through the worker's read buffers. The node's
// command trace and the capture's control events go to the slot, and
// the irq events the check raises are staged by onEvent.
func (c *Cluster) probeDevice(now sim.Time, s *probeSlot, bufs *tableBufs) {
	n := s.n
	if c.cmdTrack != nil {
		n.Inst.SetCmdTrace(&s.cmd)
	}
	temp, err := n.Inst.CheckHealth()
	s.temp, s.ok = temp, err == nil
	if s.ok && c.captureDue(n) {
		var ctrl *obs.Buffer
		if c.ctrl != nil {
			ctrl = &s.ctrl
		}
		c.snapshotNode(now, n, ctrl, bufs)
	}
	if c.cmdTrack != nil {
		n.Inst.SetCmdTrace(c.cmdTrack)
	}
}

// stageEvent stages one irq event a stage worker's health check raised,
// for the apply stage to replay. A health check raises only thermal
// alarms; anything else (a link-down fails the node, which must not
// happen after later nodes were probed) is a broken invariant.
func (c *Cluster) stageEvent(n *Node, ev device.Event) {
	if ev.Code != device.EventThermalAlarm {
		panic(fmt.Sprintf("fleet: probe stage raised irq event %#x on %s", ev.Code, n.ID))
	}
	s := &c.stage.slots[c.stage.at[n.index]-1]
	s.events = append(s.events, ev)
}

// probeAt runs the probe at position k of the stage's list on the
// serial path: the staged result of the node's first probe when the
// stage ran it, else a serial probe. It reports whether the node
// answered.
func (c *Cluster) probeAt(now sim.Time, k int, n *Node) bool {
	if k < len(c.stage.slots) {
		if s := &c.stage.slots[k]; s.n != nil {
			for _, ev := range s.events {
				c.onEvent(n, ev)
			}
			s.cmd.MoveTo(c.cmdTrack)
			ok := c.settleProbe(now, n, s.temp, s.ok)
			s.ctrl.MoveTo(c.ctrl)
			return ok
		}
	}
	return c.probe(now, n)
}

// probe is one direct health probe over the command path, run
// serially, shared by the central sweep and the gossip detector; the
// failure decision stays with the caller. It reports whether the node
// answered.
func (c *Cluster) probe(now sim.Time, n *Node) bool {
	capture := c.captureDue(n)
	temp, err := n.Inst.CheckHealth()
	ok := c.settleProbe(now, n, temp, err == nil)
	if ok && capture {
		c.snapshotNode(now, n, c.ctrl, nil)
	}
	return ok
}

// settleProbe applies one probe's outcome to the node: a miss counts
// toward failure; an answer resets the count, records the temperature,
// detects thermal recovery and paces the periodic captures.
func (c *Cluster) settleProbe(now sim.Time, n *Node, temp uint32, ok bool) bool {
	if !ok {
		n.missed++
		return false
	}
	n.missed = 0
	n.lastTemp = temp
	// CheckHealth already raised the thermal irq if over threshold; the
	// handler degraded the node. Here we also detect recovery.
	if temp < c.cfg.DegradeMilliC && n.state == Degraded {
		c.setState(now, n, Healthy, "temperature recovered")
	}
	// A responsive probe also refreshes the node's periodic
	// connection-table snapshots (captureDue) — the state dead-node
	// failover falls back to. A node that stops answering keeps its last
	// capture, which is exactly the staleness the fallback carries.
	n.probes++
	return true
}
