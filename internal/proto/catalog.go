package proto

import "fmt"

// keepWidth returns the byte-strobe width for a data bus.
func keepWidth(dataBits int) int {
	if dataBits <= 0 {
		return 0
	}
	return (dataBits + 7) / 8
}

// NewAXI4Stream returns an AXI4-Stream interface of the given data
// width, with the standard TKEEP/TLAST/TUSER/TID/TDEST sideband set
// Xilinx streaming IPs expose.
func NewAXI4Stream(name string, dataBits int) Interface {
	return Interface{
		Name:      name,
		Family:    AXI4Stream,
		Kind:      KindStream,
		DataWidth: dataBits,
		Signals: []Signal{
			{Name: "tvalid", Width: 1, Dir: Out},
			{Name: "tready", Width: 1, Dir: In},
			{Name: "tdata", Width: dataBits, Dir: Out},
			{Name: "tkeep", Width: keepWidth(dataBits), Dir: Out, Sideband: true},
			{Name: "tstrb", Width: keepWidth(dataBits), Dir: Out, Sideband: true},
			{Name: "tlast", Width: 1, Dir: Out},
			{Name: "tuser", Width: 16, Dir: Out, Sideband: true},
			{Name: "tid", Width: 8, Dir: Out, Sideband: true},
			{Name: "tdest", Width: 8, Dir: Out, Sideband: true},
		},
	}
}

// NewAXI4 returns a full AXI4 memory-mapped interface: five channels
// (AW, W, B, AR, R) with burst/lock/cache/prot/qos signalling.
func NewAXI4(name string, dataBits, addrBits int) Interface {
	kw := keepWidth(dataBits)
	return Interface{
		Name:      name,
		Family:    AXI4,
		Kind:      KindMemMap,
		DataWidth: dataBits,
		AddrWidth: addrBits,
		Signals: []Signal{
			// Write address channel.
			{Name: "awvalid", Width: 1, Dir: Out},
			{Name: "awready", Width: 1, Dir: In},
			{Name: "awaddr", Width: addrBits, Dir: Out},
			{Name: "awid", Width: 4, Dir: Out, Sideband: true},
			{Name: "awlen", Width: 8, Dir: Out},
			{Name: "awsize", Width: 3, Dir: Out},
			{Name: "awburst", Width: 2, Dir: Out},
			{Name: "awlock", Width: 1, Dir: Out, Sideband: true},
			{Name: "awcache", Width: 4, Dir: Out, Sideband: true},
			{Name: "awprot", Width: 3, Dir: Out, Sideband: true},
			{Name: "awqos", Width: 4, Dir: Out, Sideband: true},
			// Write data channel.
			{Name: "wvalid", Width: 1, Dir: Out},
			{Name: "wready", Width: 1, Dir: In},
			{Name: "wdata", Width: dataBits, Dir: Out},
			{Name: "wstrb", Width: kw, Dir: Out},
			{Name: "wlast", Width: 1, Dir: Out},
			// Write response channel.
			{Name: "bvalid", Width: 1, Dir: In},
			{Name: "bready", Width: 1, Dir: Out},
			{Name: "bid", Width: 4, Dir: In, Sideband: true},
			{Name: "bresp", Width: 2, Dir: In},
			// Read address channel.
			{Name: "arvalid", Width: 1, Dir: Out},
			{Name: "arready", Width: 1, Dir: In},
			{Name: "araddr", Width: addrBits, Dir: Out},
			{Name: "arid", Width: 4, Dir: Out, Sideband: true},
			{Name: "arlen", Width: 8, Dir: Out},
			{Name: "arsize", Width: 3, Dir: Out},
			{Name: "arburst", Width: 2, Dir: Out},
			{Name: "arlock", Width: 1, Dir: Out, Sideband: true},
			{Name: "arcache", Width: 4, Dir: Out, Sideband: true},
			{Name: "arprot", Width: 3, Dir: Out, Sideband: true},
			{Name: "arqos", Width: 4, Dir: Out, Sideband: true},
			// Read data channel.
			{Name: "rvalid", Width: 1, Dir: In},
			{Name: "rready", Width: 1, Dir: Out},
			{Name: "rid", Width: 4, Dir: In, Sideband: true},
			{Name: "rdata", Width: dataBits, Dir: In},
			{Name: "rresp", Width: 2, Dir: In},
			{Name: "rlast", Width: 1, Dir: In},
		},
	}
}

// NewAXI4Lite returns the reduced register-access AXI4-Lite interface.
func NewAXI4Lite(name string, dataBits, addrBits int) Interface {
	return Interface{
		Name:      name,
		Family:    AXI4Lite,
		Kind:      KindReg,
		DataWidth: dataBits,
		AddrWidth: addrBits,
		Signals: []Signal{
			{Name: "awvalid", Width: 1, Dir: Out},
			{Name: "awready", Width: 1, Dir: In},
			{Name: "awaddr", Width: addrBits, Dir: Out},
			{Name: "awprot", Width: 3, Dir: Out, Sideband: true},
			{Name: "wvalid", Width: 1, Dir: Out},
			{Name: "wready", Width: 1, Dir: In},
			{Name: "wdata", Width: dataBits, Dir: Out},
			{Name: "wstrb", Width: keepWidth(dataBits), Dir: Out},
			{Name: "bvalid", Width: 1, Dir: In},
			{Name: "bready", Width: 1, Dir: Out},
			{Name: "bresp", Width: 2, Dir: In},
			{Name: "arvalid", Width: 1, Dir: Out},
			{Name: "arready", Width: 1, Dir: In},
			{Name: "araddr", Width: addrBits, Dir: Out},
			{Name: "arprot", Width: 3, Dir: Out, Sideband: true},
			{Name: "rvalid", Width: 1, Dir: In},
			{Name: "rready", Width: 1, Dir: Out},
			{Name: "rdata", Width: dataBits, Dir: In},
			{Name: "rresp", Width: 2, Dir: In},
		},
	}
}

// NewAvalonST returns an Intel Avalon streaming interface with the
// startofpacket/endofpacket/empty/channel sideband set.
func NewAvalonST(name string, dataBits int) Interface {
	return Interface{
		Name:      name,
		Family:    AvalonST,
		Kind:      KindStream,
		DataWidth: dataBits,
		Signals: []Signal{
			{Name: "valid", Width: 1, Dir: Out},
			{Name: "ready", Width: 1, Dir: In},
			{Name: "data", Width: dataBits, Dir: Out},
			{Name: "startofpacket", Width: 1, Dir: Out},
			{Name: "endofpacket", Width: 1, Dir: Out},
			{Name: "empty", Width: 6, Dir: Out, Sideband: true},
			{Name: "error", Width: 2, Dir: Out, Sideband: true},
			{Name: "channel", Width: 4, Dir: Out, Sideband: true},
		},
	}
}

// NewAvalonMM returns an Intel Avalon memory-mapped interface with
// waitrequest/readdatavalid/burstcount signalling.
func NewAvalonMM(name string, dataBits, addrBits int) Interface {
	return Interface{
		Name:      name,
		Family:    AvalonMM,
		Kind:      KindMemMap,
		DataWidth: dataBits,
		AddrWidth: addrBits,
		Signals: []Signal{
			{Name: "address", Width: addrBits, Dir: Out},
			{Name: "read", Width: 1, Dir: Out},
			{Name: "write", Width: 1, Dir: Out},
			{Name: "readdata", Width: dataBits, Dir: In},
			{Name: "writedata", Width: dataBits, Dir: Out},
			{Name: "waitrequest", Width: 1, Dir: In},
			{Name: "readdatavalid", Width: 1, Dir: In},
			{Name: "byteenable", Width: keepWidth(dataBits), Dir: Out},
			{Name: "burstcount", Width: 8, Dir: Out},
			{Name: "response", Width: 2, Dir: In, Sideband: true},
			{Name: "lock", Width: 1, Dir: Out, Sideband: true},
			{Name: "debugaccess", Width: 1, Dir: Out, Sideband: true},
		},
	}
}

// Unified interface constructors (§3.2). The unified format deliberately
// has few signals: data movement plus minimal framing, with sideband
// information folded into the wrapper's FIFO entries.

// NewUnifiedStream returns the unified streaming interface: valid/ready
// handshake, data, and start/end-of-stream markers.
func NewUnifiedStream(name string, dataBits int) Interface {
	return Interface{
		Name:      name,
		Family:    Unified,
		Kind:      KindStream,
		DataWidth: dataBits,
		Signals: []Signal{
			{Name: "valid", Width: 1, Dir: Out},
			{Name: "ready", Width: 1, Dir: In},
			{Name: "data", Width: dataBits, Dir: Out},
			{Name: "sos", Width: 1, Dir: Out},
			{Name: "eos", Width: 1, Dir: Out},
			{Name: "mask", Width: keepWidth(dataBits), Dir: Out, Sideband: true},
		},
	}
}

// NewUnifiedMemMap returns the unified memory-mapped interface: address
// and size describe the data chunk.
func NewUnifiedMemMap(name string, dataBits, addrBits int) Interface {
	return Interface{
		Name:      name,
		Family:    Unified,
		Kind:      KindMemMap,
		DataWidth: dataBits,
		AddrWidth: addrBits,
		Signals: []Signal{
			{Name: "valid", Width: 1, Dir: Out},
			{Name: "ready", Width: 1, Dir: In},
			{Name: "addr", Width: addrBits, Dir: Out},
			{Name: "size", Width: 16, Dir: Out},
			{Name: "wdata", Width: dataBits, Dir: Out},
			{Name: "rdata", Width: dataBits, Dir: In},
			{Name: "write", Width: 1, Dir: Out},
			{Name: "done", Width: 1, Dir: In},
		},
	}
}

// NewUnifiedReg returns the unified 32-bit register interface.
func NewUnifiedReg(name string, addrBits int) Interface {
	return Interface{
		Name:      name,
		Family:    Unified,
		Kind:      KindReg,
		DataWidth: 32,
		AddrWidth: addrBits,
		Signals: []Signal{
			{Name: "addr", Width: addrBits, Dir: Out},
			{Name: "wdata", Width: 32, Dir: Out},
			{Name: "rdata", Width: 32, Dir: In},
			{Name: "write", Width: 1, Dir: Out},
			{Name: "read", Width: 1, Dir: Out},
			{Name: "ack", Width: 1, Dir: In},
		},
	}
}

// ForFamily builds the canonical interface of a family at the given
// widths; it is the lookup used when instantiating vendor IP ports from
// catalog metadata.
func ForFamily(f Family, name string, dataBits, addrBits int) (Interface, error) {
	switch f {
	case AXI4:
		return NewAXI4(name, dataBits, addrBits), nil
	case AXI4Lite:
		return NewAXI4Lite(name, dataBits, addrBits), nil
	case AXI4Stream:
		return NewAXI4Stream(name, dataBits), nil
	case AvalonMM:
		return NewAvalonMM(name, dataBits, addrBits), nil
	case AvalonST:
		return NewAvalonST(name, dataBits), nil
	case Unified:
		return Interface{}, fmt.Errorf("proto: unified interfaces are built per kind, not per family")
	default:
		return Interface{}, fmt.Errorf("proto: unknown interface family %q", f)
	}
}
