// Package wrapper implements Harmonia's lightweight interface wrappers
// (§3.2): structural conversion of vendor-specific ports (AXI/Avalon)
// into the unified format, and a functional datapath model of the fully
// pipelined sequential translation logic — fixed added latency of a few
// cycles, no throughput loss.
package wrapper

import (
	"fmt"

	"harmonia/internal/hdl"
	"harmonia/internal/proto"
	"harmonia/internal/sim"
)

// PipelineDepth is the fixed conversion latency in cycles the wrapper
// inserts on data paths ("consumes a few fixed clock cycles", §3.2).
const PipelineDepth = 3

// WrapperFmaxMHz is the timing closure of the translation pipeline.
const WrapperFmaxMHz = 450

// overheadFor estimates the wrapper's resource cost for one converted
// port: a FIFO with sideband capture plus translation registers, scaling
// with data width. These footprints are what Fig. 16 aggregates — well
// under one percent of any evaluated device.
func overheadFor(p proto.Interface) hdl.Resources {
	w := p.DataWidth
	if w == 0 {
		w = 32
	}
	switch p.Kind {
	case proto.KindStream, proto.KindMemMap:
		return hdl.Resources{
			LUT:  120 + w/2,
			REG:  260 + w,
			BRAM: 1,
		}
	case proto.KindReg:
		return hdl.Resources{LUT: 60, REG: 120}
	default:
		// clock/reset/irq pass through unconverted.
		return hdl.Resources{}
	}
}

// convertPort maps one vendor port to its unified equivalent.
func convertPort(p proto.Interface) (proto.Interface, bool) {
	if p.Family == proto.Unified {
		return p, false
	}
	addr := p.AddrWidth
	if addr == 0 {
		addr = 32
	}
	switch p.Kind {
	case proto.KindStream:
		return proto.NewUnifiedStream(p.Name, p.DataWidth), true
	case proto.KindMemMap:
		return proto.NewUnifiedMemMap(p.Name, p.DataWidth, addr), true
	case proto.KindReg:
		return proto.NewUnifiedReg(p.Name, addr), true
	default:
		return p, false
	}
}

// Wrap returns a copy of the module with every vendor-specific port
// converted to the unified format, plus the wrapper's resource
// overhead. The wrapped module keeps the vendor's dependency set (the
// instance inside is unchanged) and gains the wrapper's small
// handcrafted-but-reusable code volume.
func Wrap(m *hdl.Module) (*hdl.Module, hdl.Resources, error) {
	if m == nil {
		return nil, hdl.Resources{}, fmt.Errorf("wrapper: nil module")
	}
	w := m.Clone()
	w.Name = m.Name + "+wrapped"
	var overhead hdl.Resources
	converted := 0
	for i, p := range w.Ports {
		up, changed := convertPort(p)
		if !changed {
			continue
		}
		w.Ports[i] = up
		overhead = overhead.Add(overheadFor(p))
		converted++
	}
	if converted == 0 {
		return w, hdl.Resources{}, nil
	}
	w.Res = w.Res.Add(overhead)
	// The wrapper itself is ~200 lines of reusable logic per port.
	w.Code = w.Code.Add(hdl.LoC{Handcraft: 200 * converted})
	// The translation pipeline closes timing at WrapperFmaxMHz; the
	// wrapped module's achievable clock is the tighter of the two.
	if w.FmaxMHz == 0 || w.FmaxMHz > WrapperFmaxMHz {
		w.FmaxMHz = WrapperFmaxMHz
	}
	return w, overhead, nil
}

// OverheadFraction reports the wrapper overhead as a fraction of a
// device capacity (binding resource).
func OverheadFraction(overhead, capacity hdl.Resources) float64 {
	return overhead.Utilization(capacity)
}

// DataPath is the functional model of a wrapped data interface: a fully
// pipelined width/clock converter. Source beats enter at the source
// clock and width; the param clock-domain crossing moves them to the
// destination domain; the destination side drains at its own clock and
// width. Selecting S×M ≈ R×U keeps the path lossless (§3.3.1).
type DataPath struct {
	srcClk   *sim.Clock
	dstClk   *sim.Clock
	srcWidth int
	dstWidth int
	srcPipe  *sim.Pipeline
	rawPipe  *sim.Pipeline // bypass path: no translation stages
	dstPipe  *sim.Pipeline
	cdc      *sim.AsyncFIFO
	bypass   bool
}

// NewDataPath builds a converter between (srcClk, srcWidth bits) and
// (dstClk, dstWidth bits).
func NewDataPath(name string, srcClk *sim.Clock, srcWidth int, dstClk *sim.Clock, dstWidth int) (*DataPath, error) {
	if srcWidth <= 0 || dstWidth <= 0 {
		return nil, fmt.Errorf("wrapper: datapath %q widths must be positive", name)
	}
	if srcClk == nil || dstClk == nil {
		return nil, fmt.Errorf("wrapper: datapath %q requires both clocks", name)
	}
	return &DataPath{
		srcClk:   srcClk,
		dstClk:   dstClk,
		srcWidth: srcWidth,
		dstWidth: dstWidth,
		srcPipe:  sim.NewPipeline(name+".src", srcClk, PipelineDepth),
		rawPipe:  sim.NewPipeline(name+".raw", srcClk, 0),
		dstPipe:  sim.NewPipeline(name+".dst", dstClk, 0),
		cdc:      sim.NewAsyncFIFO(dstClk),
	}, nil
}

// SetBypass switches the datapath into native mode: the intrinsic clock
// crossing remains, but the wrapper's translation pipeline is skipped.
// The "w/o Harmonia" baselines of Fig. 17 run with bypass on.
func (d *DataPath) SetBypass(on bool) { d.bypass = on }

// FixedLatency reports the constant latency a beat pays: the clock
// crossing plus (unless bypassed) the translation pipeline.
func (d *DataPath) FixedLatency() sim.Time {
	lat := d.cdc.CrossingLatency()
	if !d.bypass {
		lat += d.srcPipe.Latency()
	}
	return lat
}

// Transfer moves n bytes through the converter starting no earlier than
// now and returns the completion time of the last destination beat.
// Back-to-back transfers pipeline: throughput is bounded by the slower
// side only, never by the conversion itself.
func (d *DataPath) Transfer(now sim.Time, n int) sim.Time {
	if n <= 0 {
		return now
	}
	bits := int64(n) * 8
	srcBeats := (bits + int64(d.srcWidth) - 1) / int64(d.srcWidth)
	dstBeats := (bits + int64(d.dstWidth) - 1) / int64(d.dstWidth)

	pipe := d.srcPipe
	if d.bypass {
		pipe = d.rawPipe
	}
	last := pipe.IssueBeats(now, srcBeats)
	first := last - sim.Time(srcBeats-1)*d.srcClk.Period()
	crossed := first + d.cdc.CrossingLatency()
	dstDone := d.dstPipe.IssueBeats(crossed, dstBeats)
	done := last + d.cdc.CrossingLatency()
	if dstDone > done {
		done = dstDone
	}
	return done
}

// Backlog reports how far the datapath is booked beyond now — the
// queueing delay a new transfer would see. The slower side dominates:
// when the destination cannot drain at the source rate, its issue
// frontier runs ahead and arrivals queue.
func (d *DataPath) Backlog(now sim.Time) sim.Time {
	pipe := d.srcPipe
	if d.bypass {
		pipe = d.rawPipe
	}
	free := pipe.NextFree()
	if dst := d.dstPipe.NextFree() - d.cdc.CrossingLatency(); dst > free {
		free = dst
	}
	if free > now {
		return free - now
	}
	return 0
}
