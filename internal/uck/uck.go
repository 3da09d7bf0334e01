// Package uck implements Harmonia's unified control kernel (§3.3.3):
// the software running on a lightweight soft core inside the FPGA that
// centralizes command execution. Commands arrive in a bounded buffer,
// are parsed by their length fields, executed sequentially — each
// command code defines its own processing logic — and answered with
// response packets routed back by source ID.
//
// Crucially, platform-specific register sequences live *here*, next to
// the hardware: the host issues behavior-level commands (module-init,
// table-write, ...) and the kernel runs whatever register choreography
// this platform's modules need — the mechanism that removes the ad-hoc
// host-software modifications of Fig. 3d.
package uck

import (
	"fmt"

	"harmonia/internal/cmdif"
	"harmonia/internal/sim"
)

// Module status values (the status register at address 0).
const (
	StatusReset uint32 = iota
	StatusInitializing
	StatusReady
	StatusError
)

// Module is one controllable hardware module instance: a register file,
// tables, and the platform-specific initialization sequence.
type Module struct {
	name string
	regs map[uint32]uint32
	// initSeq is the register choreography ModuleInit runs; platforms
	// differ here (Fig. 3d) but hosts never see it. It may be shared
	// with other modules (hostsw memoises one per vendor and category),
	// so it is only read.
	initSeq []RegOp
	tables  map[uint32]map[uint32][]uint32
	// Dynamic tables: live module state exposed through the ordinary
	// TableRead/TableWrite codes. A source serves reads for one tableID
	// from the module's running datapath (instead of the stored rows);
	// a sink accepts writes into it. This is how bulk state — e.g. an
	// LB connection table — migrates over the command path without a
	// new command code.
	tableSources map[uint32]func(index uint32) ([]uint32, bool)
	tableSinks   map[uint32]func(index uint32, entry []uint32) error
	statsFn      func() []uint32
	inits        int64
	resets       int64
	// flash models the module's configuration flash: sector -> erased.
	flash        map[uint32]bool
	flashSectors uint32
	// eventSink receives latency-critical events (the irq unified type
	// of §3.2): raised signals bypass the command path entirely.
	eventSink func(code, data uint32)
}

// RegOpKind distinguishes register operations.
type RegOpKind int

// Register operation kinds.
const (
	OpWrite RegOpKind = iota
	OpRead
	// OpWait polls a register until it equals the value (the shell-A
	// style init of Fig. 3d).
	OpWait
)

// RegOp is one register-level step.
type RegOp struct {
	Kind  RegOpKind
	Addr  uint32
	Value uint32
}

// StatusAddr is the conventional status register address.
const StatusAddr uint32 = 0

// NewModule returns a module named name with the given init sequence.
func NewModule(name string, initSeq []RegOp) *Module {
	return &Module{
		name:    name,
		regs:    map[uint32]uint32{StatusAddr: StatusReset},
		initSeq: initSeq,
		tables:  make(map[uint32]map[uint32][]uint32),
	}
}

// EnableFlash attaches a configuration flash of the given sector count
// (management modules carry one for bitstream storage).
func (m *Module) EnableFlash(sectors uint32) {
	m.flash = make(map[uint32]bool)
	m.flashSectors = sectors
}

// FlashErased reports whether a sector has been erased.
func (m *Module) FlashErased(sector uint32) bool { return m.flash[sector] }

// SetEventSink wires the module's irq output; RaiseEvent delivers
// through it.
func (m *Module) SetEventSink(fn func(code, data uint32)) { m.eventSink = fn }

// RaiseEvent fires a latency-critical signal (link down, thermal alarm,
// parity error) toward the host, bypassing command execution.
func (m *Module) RaiseEvent(code, data uint32) {
	if m.eventSink != nil {
		m.eventSink(code, data)
	}
}

// Name reports the module name.
func (m *Module) Name() string { return m.name }

// SetStatsFn installs the monitoring read callback.
func (m *Module) SetStatsFn(fn func() []uint32) { m.statsFn = fn }

// SetTableSource binds fn to serve TableRead for tableID from live
// module state; a nil fn removes the binding. Sourced tables shadow any
// stored rows with the same ID.
func (m *Module) SetTableSource(tableID uint32, fn func(index uint32) ([]uint32, bool)) {
	if m.tableSources == nil {
		m.tableSources = make(map[uint32]func(uint32) ([]uint32, bool))
	}
	if fn == nil {
		delete(m.tableSources, tableID)
		return
	}
	m.tableSources[tableID] = fn
}

// SetTableSink binds fn to accept TableWrite for tableID into live
// module state; a nil fn removes the binding.
func (m *Module) SetTableSink(tableID uint32, fn func(index uint32, entry []uint32) error) {
	if m.tableSinks == nil {
		m.tableSinks = make(map[uint32]func(uint32, []uint32) error)
	}
	if fn == nil {
		delete(m.tableSinks, tableID)
		return
	}
	m.tableSinks[tableID] = fn
}

// RegWrite writes a register.
func (m *Module) RegWrite(addr, val uint32) {
	m.regs[addr] = val
}

// RegRead reads a register.
func (m *Module) RegRead(addr uint32) uint32 { return m.regs[addr] }

// Status reports the module status register.
func (m *Module) Status() uint32 { return m.regs[StatusAddr] }

// Inits and Resets report lifecycle counts.
func (m *Module) Inits() int64 { return m.inits }

// Resets reports how many times the module was reset.
func (m *Module) Resets() int64 { return m.resets }

// Table returns the entries at (tableID, index).
func (m *Module) Table(tableID, index uint32) ([]uint32, bool) {
	t, ok := m.tables[tableID]
	if !ok {
		return nil, false
	}
	e, ok := t[index]
	return e, ok
}

// runInit executes the platform-specific init choreography.
func (m *Module) runInit() int {
	m.RegWrite(StatusAddr, StatusInitializing)
	steps := 1
	for _, op := range m.initSeq {
		steps++
		switch op.Kind {
		case OpWrite:
			m.RegWrite(op.Addr, op.Value)
		case OpRead:
			m.RegRead(op.Addr)
		case OpWait:
			// In the functional model waits complete immediately; the
			// kernel charges poll cycles in its timing model.
			m.RegRead(op.Addr)
		}
	}
	m.RegWrite(StatusAddr, StatusReady)
	m.inits++
	return steps + 1
}

// Handler implements one command code against a module. It returns the
// response payload and the number of register operations performed
// (used for timing).
type Handler func(m *Module, p *cmdif.Packet) (data []uint32, regOps int, err error)

// appendHandler is the form the kernel runs a command code in: the
// response payload is appended to dst, the response packet's own
// storage, so the built-in codes answer without allocating. Extend
// adapts a Handler to it.
type appendHandler func(m *Module, p *cmdif.Packet, dst []uint32) (data []uint32, regOps int, err error)

// Kernel is the unified control kernel.
type Kernel struct {
	clk      *sim.Clock
	buffer   []*cmdif.Packet
	depth    int
	modules  map[[2]uint8]*Module
	handlers map[cmdif.Code]appendHandler
	executed int64
	busy     sim.Time
	// execAt is the start time of the command being executed, read by
	// the time-count handler.
	execAt sim.Time
}

// Soft-core execution cost model (Nios-class core at 200 MHz).
const (
	parseCyclesPerWord = 4
	baseExecCycles     = 40
	cyclesPerRegOp     = 6
)

// NewKernel returns a kernel with the given command buffer depth
// (configurable, §3.3.3) and the built-in handler set.
func NewKernel(bufferDepth int) (*Kernel, error) {
	if bufferDepth <= 0 {
		return nil, fmt.Errorf("uck: buffer depth %d must be positive", bufferDepth)
	}
	k := &Kernel{
		clk:      sim.NewClock("uck", 200),
		depth:    bufferDepth,
		modules:  make(map[[2]uint8]*Module),
		handlers: make(map[cmdif.Code]appendHandler),
	}
	k.handlers[cmdif.StatusRead] = handleStatusRead
	k.handlers[cmdif.StatusWrite] = handleStatusWrite
	k.handlers[cmdif.ModuleInit] = handleModuleInit
	k.handlers[cmdif.ModuleReset] = handleModuleReset
	k.handlers[cmdif.TableWrite] = handleTableWrite
	k.handlers[cmdif.TableRead] = handleTableRead
	k.handlers[cmdif.StatsRead] = handleStatsRead
	k.handlers[cmdif.FlashErase] = handleFlashErase
	k.handlers[cmdif.TimeCount] = k.handleTimeCount
	return k, nil
}

// Register binds a module to (rbbID, instanceID).
func (k *Kernel) Register(rbbID, instanceID uint8, m *Module) error {
	key := [2]uint8{rbbID, instanceID}
	if _, dup := k.modules[key]; dup {
		return fmt.Errorf("uck: module %d/%d already registered", rbbID, instanceID)
	}
	if m == nil {
		return fmt.Errorf("uck: nil module")
	}
	k.modules[key] = m
	return nil
}

// Module returns the module bound to (rbbID, instanceID).
func (k *Kernel) Module(rbbID, instanceID uint8) (*Module, bool) {
	m, ok := k.modules[[2]uint8{rbbID, instanceID}]
	return m, ok
}

// Extend installs a handler for a new command code — the extensibility
// hook for new hardware modules (e.g. i2c) and software tools.
func (k *Kernel) Extend(code cmdif.Code, h Handler) error {
	if _, dup := k.handlers[code]; dup {
		return fmt.Errorf("uck: handler for %v already installed", code)
	}
	if h == nil {
		return fmt.Errorf("uck: nil handler")
	}
	k.handlers[code] = func(m *Module, p *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
		data, regOps, err := h(m, p)
		return append(dst, data...), regOps, err
	}
	return nil
}

// Submit buffers a command for execution; it fails when the buffer is
// full (backpressure to the driver).
func (k *Kernel) Submit(p *cmdif.Packet) error {
	if len(k.buffer) >= k.depth {
		return fmt.Errorf("uck: command buffer full (%d)", k.depth)
	}
	k.buffer = append(k.buffer, p)
	return nil
}

// SubmitStream parses commands out of a contiguous byte buffer (the
// form they arrive in from the DMA control queue), using the header and
// payload length fields to find command boundaries, and buffers each
// one. It returns how many commands were accepted. A malformed packet
// stops parsing and is reported; commands already accepted stay
// buffered.
func (k *Kernel) SubmitStream(buf []byte) (n int, err error) {
	rest := buf
	for len(rest) > 0 {
		p, remaining, perr := cmdif.Unmarshal(rest)
		if perr != nil {
			return n, fmt.Errorf("uck: stream parse after %d commands: %w", n, perr)
		}
		if serr := k.Submit(p); serr != nil {
			return n, serr
		}
		n++
		rest = remaining
	}
	return n, nil
}

// Pending reports buffered command count.
func (k *Kernel) Pending() int { return len(k.buffer) }

// Executed reports total executed command count.
func (k *Kernel) Executed() int64 { return k.executed }

// ExecuteNext runs the oldest buffered command at time now and returns
// its response and completion time. ok is false when the buffer is
// empty.
func (k *Kernel) ExecuteNext(now sim.Time) (resp *cmdif.Packet, done sim.Time, ok bool, err error) {
	if len(k.buffer) == 0 {
		return nil, now, false, nil
	}
	p := k.buffer[0]
	k.buffer = k.buffer[1:]
	resp, done, err = k.Execute(now, p)
	return resp, done, true, err
}

// Execute runs one command immediately (bypassing the buffer) and
// returns the response packet and the completion time under the soft-
// core cost model. Execution is sequential: commands serialize on the
// kernel.
func (k *Kernel) Execute(now sim.Time, p *cmdif.Packet) (*cmdif.Packet, sim.Time, error) {
	resp := new(cmdif.Packet)
	done, err := k.ExecuteInto(now, p, resp)
	if err != nil {
		return nil, done, err
	}
	return resp, done, nil
}

// ExecuteInto is Execute building the response in resp, whose Data
// array carries the payload when it is large enough: a caller that
// answers every command into one packet executes without allocating.
// The payload never aliases module state. resp must not be p; on error
// its contents are unspecified.
func (k *Kernel) ExecuteInto(now sim.Time, p, resp *cmdif.Packet) (sim.Time, error) {
	start := k.clk.NextEdge(now)
	if k.busy > start {
		start = k.busy
	}
	words := 3 + len(p.Data)
	cycles := int64(parseCyclesPerWord*words + baseExecCycles)

	h, ok := k.handlers[p.Code]
	if !ok {
		k.busy = start + k.clk.CyclesTime(cycles)
		return k.busy, fmt.Errorf("uck: no handler for %v", p.Code)
	}
	m, ok := k.Module(p.RBBID, p.InstanceID)
	if !ok {
		k.busy = start + k.clk.CyclesTime(cycles)
		return k.busy, fmt.Errorf("uck: no module at %d/%d", p.RBBID, p.InstanceID)
	}
	k.execAt = start
	data, regOps, err := h(m, p, resp.Data[:0])
	cycles += int64(cyclesPerRegOp * regOps)
	k.busy = start + k.clk.CyclesTime(cycles)
	if err != nil {
		return k.busy, err
	}
	k.executed++
	*resp = p.Response(data)
	return k.busy, nil
}

func handleStatusRead(m *Module, _ *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
	return append(dst, m.RegRead(StatusAddr)), 1, nil
}

func handleStatusWrite(m *Module, p *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
	if len(p.Data) < 1 {
		return dst, 0, fmt.Errorf("uck: status-write needs a value")
	}
	m.RegWrite(StatusAddr, p.Data[0])
	return dst, 1, nil
}

func handleModuleInit(m *Module, _ *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
	steps := m.runInit()
	return append(dst, m.Status()), steps, nil
}

func handleModuleReset(m *Module, _ *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
	m.RegWrite(StatusAddr, StatusReset)
	m.resets++
	return append(dst, m.Status()), 1, nil
}

// handleTableWrite copies the written entries out of the command, whose
// storage the issuing driver reuses for the next one.
func handleTableWrite(m *Module, p *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
	if len(p.Data) < 3 {
		return dst, 0, fmt.Errorf("uck: table-write needs table, index and entries")
	}
	tableID, index := p.Data[0], p.Data[1]
	entries := append([]uint32(nil), p.Data[2:]...)
	if sink, ok := m.tableSinks[tableID]; ok {
		if err := sink(index, entries); err != nil {
			return dst, 1, fmt.Errorf("uck: table %d sink: %w", tableID, err)
		}
		return dst, len(entries) + 1, nil
	}
	if m.tables[tableID] == nil {
		m.tables[tableID] = make(map[uint32][]uint32)
	}
	m.tables[tableID][index] = entries
	// One register write per entry word plus the index setup.
	return dst, len(entries) + 1, nil
}

// handleTableRead copies the row into the response, so the reply never
// aliases a stored row or a table source's buffer.
func handleTableRead(m *Module, p *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
	if len(p.Data) < 2 {
		return dst, 0, fmt.Errorf("uck: table-read needs table and index")
	}
	var entries []uint32
	ok := false
	if src, sourced := m.tableSources[p.Data[0]]; sourced {
		entries, ok = src(p.Data[1])
	} else {
		entries, ok = m.Table(p.Data[0], p.Data[1])
	}
	if !ok {
		return dst, 1, fmt.Errorf("uck: table %d index %d not present", p.Data[0], p.Data[1])
	}
	return append(dst, entries...), len(entries) + 1, nil
}

func handleStatsRead(m *Module, _ *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
	if m.statsFn == nil {
		return dst, 1, fmt.Errorf("uck: module %s has no stats", m.Name())
	}
	data := m.statsFn()
	return append(dst, data...), len(data), nil
}

func handleFlashErase(m *Module, p *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
	if m.flash == nil {
		return dst, 0, fmt.Errorf("uck: module %s has no flash", m.Name())
	}
	if len(p.Data) < 1 {
		return dst, 0, fmt.Errorf("uck: flash-erase needs a sector")
	}
	sector := p.Data[0]
	if sector >= m.flashSectors {
		return dst, 0, fmt.Errorf("uck: sector %d out of range [0,%d)", sector, m.flashSectors)
	}
	m.flash[sector] = true
	// Erasing is slow: model it as many register-op equivalents so the
	// kernel charges milliseconds-scale time.
	return append(dst, sector), 4096, nil
}

// handleTimeCount returns the kernel's current time in nanoseconds as
// (high, low) words — the time-count operation of §3.3.3.
func (k *Kernel) handleTimeCount(_ *Module, _ *cmdif.Packet, dst []uint32) ([]uint32, int, error) {
	ns := uint64(k.execAt / sim.Nanosecond)
	return append(dst, uint32(ns>>32), uint32(ns)), 1, nil
}
