// Package cmdif defines Harmonia's command-based hardware-software
// interface (§3.3.3): a packet-format command with version, header and
// payload lengths in 4-byte units, source/destination controller IDs,
// the module operation code (RBB ID, instance ID, command code),
// physical-interface options, payload data and a checksum — Fig. 9.
package cmdif

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the current command format revision.
const Version = 1

// Code is a command code: the behavior-level control operation.
type Code uint16

// Common command codes (Fig. 9) plus the extended set the unified
// control kernel supports.
const (
	StatusRead  Code = 0x0000
	StatusWrite Code = 0x0001
	ModuleInit  Code = 0x0002
	ModuleReset Code = 0x0003
	TableWrite  Code = 0x0004
	TableRead   Code = 0x0005
	StatsRead   Code = 0x0006
	FlashErase  Code = 0x0007
	TimeCount   Code = 0x0008
)

// String names the command code.
func (c Code) String() string {
	switch c {
	case StatusRead:
		return "status-read"
	case StatusWrite:
		return "status-write"
	case ModuleInit:
		return "module-init"
	case ModuleReset:
		return "module-reset"
	case TableWrite:
		return "table-write"
	case TableRead:
		return "table-read"
	case StatsRead:
		return "stats-read"
	case FlashErase:
		return "flash-erase"
	case TimeCount:
		return "time-count"
	default:
		return fmt.Sprintf("code(%#04x)", uint16(c))
	}
}

// Source controller IDs: distinct host software controllers (§3.3.3).
const (
	SrcApplication uint8 = 0x01
	SrcBMC         uint8 = 0x02
	SrcCtrlTool    uint8 = 0x03
)

// Destination IDs: hardware module classes.
const (
	DstUCK   uint8 = 0x00 // the control kernel itself
	DstShell uint8 = 0x01
	DstRole  uint8 = 0x02
)

// headerWords is the fixed header size: three 32-bit words (version/
// lengths/IDs, module operation code, options) — HdLen = 3.
const headerWords = 3

// MaxPayloadWords bounds the Data field (8-bit PayloadLen field).
const MaxPayloadWords = 255

// Packet is one command or response.
type Packet struct {
	Version    uint8 // 4 bits on the wire
	SrcID      uint8
	DstID      uint8
	RBBID      uint8
	InstanceID uint8
	Code       Code
	Options    uint32
	Data       []uint32
}

// Marshalling errors.
var (
	ErrTruncated = errors.New("cmdif: packet truncated")
	ErrChecksum  = errors.New("cmdif: checksum mismatch")
	ErrVersion   = errors.New("cmdif: unsupported version")
	ErrTooLarge  = errors.New("cmdif: payload exceeds 255 words")
)

// WireBytes reports the marshalled size: header + payload + checksum.
func (p *Packet) WireBytes() int { return (headerWords+len(p.Data))*4 + 4 }

// fold32 folds a running sum of 32-bit words into the ones-complement
// checksum.
func fold32(sum uint64) uint32 {
	for sum>>32 != 0 {
		sum = (sum & 0xffffffff) + (sum >> 32)
	}
	return ^uint32(sum)
}

// check validates the fields Marshal encodes into bounded bit fields.
func (p *Packet) check() error {
	if len(p.Data) > MaxPayloadWords {
		return ErrTooLarge
	}
	if p.Version > 0xf {
		return fmt.Errorf("cmdif: version %d exceeds 4 bits", p.Version)
	}
	return nil
}

// WireLen reports the length Marshal produces, with the same
// validation, without marshalling.
func (p *Packet) WireLen() (int, error) {
	if err := p.check(); err != nil {
		return 0, err
	}
	return p.WireBytes(), nil
}

// AppendMarshal appends the serialized packet — header, payload, then
// the checksum over both — to dst and returns the extended slice. A
// caller that reuses dst marshals without allocating.
func (p *Packet) AppendMarshal(dst []byte) ([]byte, error) {
	if err := p.check(); err != nil {
		return dst, err
	}
	w0 := uint32(p.Version&0xf)<<28 |
		uint32(headerWords&0xf)<<24 |
		uint32(len(p.Data)&0xff)<<16 |
		uint32(p.SrcID)<<8 |
		uint32(p.DstID)
	w1 := uint32(p.RBBID)<<24 | uint32(p.InstanceID)<<16 | uint32(p.Code)
	dst = binary.BigEndian.AppendUint32(dst, w0)
	dst = binary.BigEndian.AppendUint32(dst, w1)
	dst = binary.BigEndian.AppendUint32(dst, p.Options)
	sum := uint64(w0) + uint64(w1) + uint64(p.Options)
	for _, w := range p.Data {
		dst = binary.BigEndian.AppendUint32(dst, w)
		sum += uint64(w)
	}
	return binary.BigEndian.AppendUint32(dst, fold32(sum)), nil
}

// Marshal serializes the packet with its checksum appended.
func (p *Packet) Marshal() ([]byte, error) {
	return p.AppendMarshal(make([]byte, 0, p.WireBytes()))
}

// Unmarshal parses a packet, validating lengths and checksum. The
// header and payload lengths delimit the command boundary, so packets
// can be parsed from a contiguous command stream (parsing step 3 of the
// §3.3.3 walkthrough); the remainder is returned. The packet owns its
// payload: nothing it holds aliases b.
func Unmarshal(b []byte) (p *Packet, rest []byte, err error) {
	p = new(Packet)
	if rest, err = p.Parse(b); err != nil {
		return nil, b, err
	}
	return p, rest, nil
}

// Parse is Unmarshal into p: it overwrites every field of p with the
// packet at the front of b, decoding the payload into p's own Data
// array when that holds it, and returns the remainder. A caller that
// parses every command into one packet parses without allocating. On
// error p is left untouched.
func (p *Packet) Parse(b []byte) (rest []byte, err error) {
	if len(b) < (headerWords+1)*4 {
		return b, ErrTruncated
	}
	w0 := binary.BigEndian.Uint32(b)
	version := uint8(w0 >> 28)
	hdLen := int(w0 >> 24 & 0xf)
	payLen := int(w0 >> 16 & 0xff)
	if version != Version {
		return b, fmt.Errorf("%w: %d", ErrVersion, version)
	}
	if hdLen < headerWords {
		return b, fmt.Errorf("cmdif: header length %d too small", hdLen)
	}
	total := (hdLen + payLen + 1) * 4
	if len(b) < total {
		return b, ErrTruncated
	}
	body := b[:(hdLen+payLen)*4]
	var sum uint64
	for i := 0; i < len(body); i += 4 {
		sum += uint64(binary.BigEndian.Uint32(body[i:]))
	}
	if binary.BigEndian.Uint32(b[len(body):]) != fold32(sum) {
		return b, ErrChecksum
	}
	w1 := binary.BigEndian.Uint32(b[4:])
	data := p.Data[:0]
	if payLen > 0 {
		if cap(data) < payLen {
			data = make([]uint32, 0, payLen)
		}
		data = data[:payLen]
		for i := range data {
			data[i] = binary.BigEndian.Uint32(body[(hdLen+i)*4:])
		}
	}
	*p = Packet{
		Version:    version,
		SrcID:      uint8(w0 >> 8),
		DstID:      uint8(w0),
		RBBID:      uint8(w1 >> 24),
		InstanceID: uint8(w1 >> 16),
		Code:       Code(w1),
		Options:    binary.BigEndian.Uint32(b[8:]),
		Data:       data,
	}
	return b[total:], nil
}

// Response builds a reply to p carrying data: source and destination
// swap so the driver can deliver it to the issuing controller (§3.3.3
// step 7). It returns a value, so a caller can build the reply in a
// packet it already holds.
func (p *Packet) Response(data []uint32) Packet {
	return Packet{
		Version:    p.Version,
		SrcID:      p.DstID,
		DstID:      p.SrcID,
		RBBID:      p.RBBID,
		InstanceID: p.InstanceID,
		Code:       p.Code,
		Options:    p.Options,
		Data:       data,
	}
}

// New returns a command packet addressed to (rbbID, instanceID) with
// the current version and the application source ID.
func New(rbbID, instanceID uint8, code Code, data ...uint32) *Packet {
	return &Packet{
		Version:    Version,
		SrcID:      SrcApplication,
		DstID:      DstShell,
		RBBID:      rbbID,
		InstanceID: instanceID,
		Code:       code,
		Data:       data,
	}
}
