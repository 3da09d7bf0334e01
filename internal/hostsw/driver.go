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

// DoInto issues one command at time now, builds the response in resp
// (reusing its Data array) and returns the response's arrival time back
// at the host. The command really crosses the wire in marshalled form:
// the kernel executes what it parses, and checksum failures are NAKed
// and retransmitted (the CheckSum error handling of Fig. 9). A caller
// that keeps one response packet round-trips without allocating. resp
// must not be p; on error its contents are unspecified.
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

// Issued reports how many commands completed.
func (d *CmdDriver) Issued() int64 { return d.issued }
