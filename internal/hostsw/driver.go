package hostsw

import (
	"fmt"

	"harmonia/internal/cmdif"
	"harmonia/internal/obs"
	"harmonia/internal/pcie"
	"harmonia/internal/sim"
	"harmonia/internal/uck"
)

// CmdDriver is the command-based host driver: it marshals command
// packets, moves them over the PCIe control queue (isolated from the
// data path), lets the unified control kernel execute them, and returns
// the response — steps 1-7 of the §3.3.3 walkthrough.
type CmdDriver struct {
	engine *pcie.Engine
	kernel *uck.Kernel
	issued int64
	// inject optionally corrupts the marshalled command on the wire
	// (fault injection); attempt counts from zero.
	inject func(attempt int, buf []byte) []byte
	// MaxRetries bounds checksum-failure retransmissions.
	MaxRetries int
	retries    int64
	drops      int64
	// trace records command-path anomalies (retried commands, drops);
	// nil is the zero-cost disabled state.
	trace *obs.Buffer
	// wire is the driver's command buffer and parsed the command the
	// kernel parses out of it, both reused by every command: the kernel
	// copies out whatever it keeps of a command, and builds the response
	// in the caller's packet, so nothing a response holds aliases them.
	wire   []byte
	parsed cmdif.Packet
}

// NewCmdDriver builds a driver over a DMA engine and a control kernel.
func NewCmdDriver(engine *pcie.Engine, kernel *uck.Kernel) (*CmdDriver, error) {
	if engine == nil || kernel == nil {
		return nil, fmt.Errorf("hostsw: command driver needs an engine and a kernel")
	}
	return &CmdDriver{engine: engine, kernel: kernel, MaxRetries: 3}, nil
}

// SetFaultInjector installs a wire-corruption hook for failure testing.
func (d *CmdDriver) SetFaultInjector(fn func(attempt int, buf []byte) []byte) {
	d.inject = fn
}

// SetTrace attaches (nil detaches) a trace track. Only anomalous
// commands record — ones that needed retransmission or were dropped —
// so the healthy command path stays span-free and cheap.
func (d *CmdDriver) SetTrace(b *obs.Buffer) { d.trace = b }

// Retries reports checksum-triggered retransmissions.
func (d *CmdDriver) Retries() int64 { return d.retries }

// Drops reports commands abandoned after exhausting retransmissions —
// the command-path loss a fleet health monitor reads as missed
// heartbeats.
func (d *CmdDriver) Drops() int64 { return d.drops }

// Do issues one command at time now and returns the response and its
// arrival time back at the host. The command really crosses the wire in
// marshalled form: the kernel executes what it parses, and checksum
// failures are NAKed and retransmitted (the CheckSum error handling of
// Fig. 9). The response is a new packet the caller owns.
func (d *CmdDriver) Do(now sim.Time, p *cmdif.Packet) (*cmdif.Packet, sim.Time, error) {
	resp := new(cmdif.Packet)
	done, err := d.DoInto(now, p, resp)
	if err != nil {
		return nil, done, err
	}
	return resp, done, nil
}

// DoInto is Do building the response in resp, reusing its Data array:
// a caller that keeps one response packet round-trips without
// allocating. resp must not be p; on error its contents are
// unspecified.
func (d *CmdDriver) DoInto(now sim.Time, p, resp *cmdif.Packet) (sim.Time, error) {
	buf, err := p.AppendMarshal(d.wire[:0])
	if err != nil {
		return now, err
	}
	d.wire = buf
	t := now
	for attempt := 0; ; attempt++ {
		wire := buf
		if d.inject != nil {
			wire = d.inject(attempt, append([]byte(nil), buf...))
		}
		// Command transfer: the dedicated control queue keeps this
		// isolated from data traffic.
		if err := d.engine.PostControl(t, len(wire)); err != nil {
			return t, err
		}
		arrive, ok := d.engine.Step(t)
		if !ok {
			return t, fmt.Errorf("hostsw: control transfer not dispatched")
		}
		if _, perr := d.parsed.Parse(wire); perr != nil {
			// NAK: the kernel rejects the corrupted command; the driver
			// retransmits.
			if attempt >= d.MaxRetries {
				d.drops++
				if d.trace != nil {
					e := obs.Span(obs.CatCmd, "cmd-drop", now, arrive)
					e.K2, e.V2 = "attempts", int64(attempt+1)
					d.trace.Add(e)
				}
				return arrive, fmt.Errorf("hostsw: command dropped after %d attempts: %w",
					attempt+1, perr)
			}
			d.retries++
			t = arrive
			continue
		}
		// Parse + execute in the control kernel.
		execDone, err := d.kernel.ExecuteInto(arrive, &d.parsed, resp)
		if err != nil {
			return execDone, err
		}
		// Response upload through the same engine.
		respLen, err := resp.WireLen()
		if err != nil {
			return execDone, err
		}
		done := d.engine.Link().Transfer(execDone, respLen)
		d.issued++
		if d.trace != nil && attempt > 0 {
			e := obs.Span(obs.CatCmd, "cmd-retry", now, done)
			e.K2, e.V2 = "attempts", int64(attempt+1)
			d.trace.Add(e)
		}
		return done, nil
	}
}

// CmdWrite issues a write-style command (no payload expected back).
func (d *CmdDriver) CmdWrite(now sim.Time, p *cmdif.Packet) (sim.Time, error) {
	_, done, err := d.Do(now, p)
	return done, err
}

// CmdRead issues a read-style command and returns the response payload.
func (d *CmdDriver) CmdRead(now sim.Time, p *cmdif.Packet) ([]uint32, sim.Time, error) {
	resp, done, err := d.Do(now, p)
	if err != nil {
		return nil, done, err
	}
	return resp.Data, done, nil
}

// Issued reports how many commands completed.
func (d *CmdDriver) Issued() int64 { return d.issued }

// RegDriver is the traditional register-level driver commercial
// frameworks expose: every register operation is an individual PCIe
// round trip performed by the host, and the host itself sequences the
// platform-specific choreography.
type RegDriver struct {
	link   *pcie.Link
	module *uck.Module
	ops    int64
	// PollTries models OpWait as repeated status reads.
	PollTries int
}

// NewRegDriver builds a register driver for one module over a link.
func NewRegDriver(link *pcie.Link, module *uck.Module) (*RegDriver, error) {
	if link == nil || module == nil {
		return nil, fmt.Errorf("hostsw: register driver needs a link and a module")
	}
	return &RegDriver{link: link, module: module, PollTries: 3}, nil
}

// regOpBytes is the TLP payload of one register access.
const regOpBytes = 8

// Run executes a register sequence, charging one PCIe round trip per
// access (reads and waits also pay the completion return).
func (d *RegDriver) Run(now sim.Time, ops []uck.RegOp) sim.Time {
	t := now
	for _, op := range ops {
		switch op.Kind {
		case uck.OpWrite:
			t = d.link.Transfer(t, regOpBytes)
			d.module.RegWrite(op.Addr, op.Value)
			d.ops++
		case uck.OpRead:
			t = d.link.Transfer(t, regOpBytes)
			d.module.RegRead(op.Addr)
			t = d.link.Transfer(t, regOpBytes) // completion
			d.ops++
		case uck.OpWait:
			for i := 0; i < d.PollTries; i++ {
				t = d.link.Transfer(t, regOpBytes)
				d.module.RegRead(op.Addr)
				t = d.link.Transfer(t, regOpBytes)
				d.ops++
			}
		}
	}
	return t
}

// Ops reports the register operations performed.
func (d *RegDriver) Ops() int64 { return d.ops }
