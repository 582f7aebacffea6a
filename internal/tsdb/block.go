package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"fluxpower/internal/variorum"
)

// Block file layout (little-endian), one immutable compressed run of
// samples sharing a channel schema:
//
//	u32  magic "FPB1"
//	u8   version (1)
//	u32  count                         — samples in the block
//	f64  minTs, f64 maxTs              — the sparse index entry
//	u16  len + bytes                   — hostname
//	u16  len + bytes                   — arch
//	u8   flags                         — bit0 memNil, bit1 gpuSockNil, bit2 gpuDevNil
//	u8×5 nCPU, nMem, nGPUSock, nGPUDev, gpusPerSensorEntry
//	(1 + 1 + nCPU + nMem + nGPUSock + nGPUDev) × { u32 len + bytes }
//	     — timestamp stream, node-watts stream, then one XOR stream per
//	       scalar channel in struct order
//	u32  CRC32 (IEEE) over everything above
//
// Decoding verifies the trailing CRC over the whole buffer before
// trusting any length field, then walks the header through a
// bounds-checked cursor; a block that fails any step returns an error and
// never panics or allocates proportional to hostile counts.

const (
	blockMagic   = 0x46504231 // "FPB1"
	blockVersion = 1
	// maxBlockBytes caps how large a block file decode will even look at.
	maxBlockBytes = 64 << 20
	// maxBlockString caps hostname/arch lengths.
	maxBlockString = 4096
)

// blockSchema is the per-channel shape shared by every sample in one
// block. A sample whose shape differs seals the current head early.
type blockSchema struct {
	hostname string
	arch     string
	nCPU     int
	nMem     int
	nGPUSock int
	nGPUDev  int
	gpusPer  int
	memNil   bool
	gpuSNil  bool
	gpuDNil  bool
	cpuNil   bool
}

func schemaOf(p variorum.NodePower) blockSchema {
	return blockSchema{
		hostname: p.Hostname,
		arch:     p.Arch,
		nCPU:     len(p.SocketCPUWatts),
		nMem:     len(p.SocketMemWatts),
		nGPUSock: len(p.SocketGPUWatts),
		nGPUDev:  len(p.GPUWatts),
		gpusPer:  p.GPUsPerSensorEntry,
		memNil:   p.SocketMemWatts == nil,
		gpuSNil:  p.SocketGPUWatts == nil,
		gpuDNil:  p.GPUWatts == nil,
		cpuNil:   p.SocketCPUWatts == nil,
	}
}

// encodable reports whether the block format can hold this shape: at
// most 255 entries per channel group and maxBlockString bytes per string.
func (s blockSchema) encodable() error {
	if s.nCPU > 255 || s.nMem > 255 || s.nGPUSock > 255 || s.nGPUDev > 255 ||
		s.gpusPer > 255 || len(s.hostname) > maxBlockString || len(s.arch) > maxBlockString {
		return fmt.Errorf("tsdb: sample shape too large for block schema")
	}
	return nil
}

// channels returns the number of scalar value streams (excluding the
// timestamp stream).
func (s blockSchema) channels() int {
	return 1 + s.nCPU + s.nMem + s.nGPUSock + s.nGPUDev // 1 = NodeWatts
}

// encodeBlock seals samples (all sharing the first sample's schema) into
// a block file image.
func encodeBlock(samples []variorum.NodePower) ([]byte, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("tsdb: empty block")
	}
	s := schemaOf(samples[0])
	if err := s.encodable(); err != nil {
		return nil, err
	}
	minTs, maxTs := samples[0].Timestamp, samples[0].Timestamp
	for _, p := range samples[1:] {
		if schemaOf(p) != s {
			return nil, fmt.Errorf("tsdb: mixed sample schemas in one block")
		}
		minTs = math.Min(minTs, p.Timestamp)
		maxTs = math.Max(maxTs, p.Timestamp)
	}

	// Transpose into per-channel columns.
	n := len(samples)
	ts := make([]float64, n)
	cols := make([][]float64, s.channels())
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	for i, p := range samples {
		ts[i] = p.Timestamp
		c := 0
		cols[c][i] = p.NodeWatts
		c++
		for j := 0; j < s.nCPU; j++ {
			cols[c][i] = p.SocketCPUWatts[j]
			c++
		}
		for j := 0; j < s.nMem; j++ {
			cols[c][i] = p.SocketMemWatts[j]
			c++
		}
		for j := 0; j < s.nGPUSock; j++ {
			cols[c][i] = p.SocketGPUWatts[j]
			c++
		}
		for j := 0; j < s.nGPUDev; j++ {
			cols[c][i] = p.GPUWatts[j]
			c++
		}
	}

	var flags byte
	if s.memNil {
		flags |= 1 << 0
	}
	if s.gpuSNil {
		flags |= 1 << 1
	}
	if s.gpuDNil {
		flags |= 1 << 2
	}
	if s.cpuNil {
		flags |= 1 << 3
	}

	buf := binary.LittleEndian.AppendUint32(nil, blockMagic)
	buf = append(buf, blockVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(minTs))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(maxTs))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.hostname)))
	buf = append(buf, s.hostname...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.arch)))
	buf = append(buf, s.arch...)
	buf = append(buf, flags, byte(s.nCPU), byte(s.nMem), byte(s.nGPUSock), byte(s.nGPUDev), byte(s.gpusPer))

	appendStream := func(stream []byte) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(stream)))
		buf = append(buf, stream...)
	}
	appendStream(encodeTimestamps(ts))
	for _, col := range cols {
		appendStream(encodeValues(col))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// byteCursor is a bounds-checked reader over a block image.
type byteCursor struct {
	data []byte
	pos  int
}

func (c *byteCursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.data) {
		return nil, errShortStream
	}
	b := c.data[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}

func (c *byteCursor) u8() (byte, error) {
	b, err := c.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *byteCursor) u16() (uint16, error) {
	b, err := c.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (c *byteCursor) u32() (uint32, error) {
	b, err := c.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *byteCursor) f64() (float64, error) {
	b, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// blockHeader is the decoded header: the index entry plus the schema.
type blockHeader struct {
	schema blockSchema
	count  int
	minTs  float64
	maxTs  float64
}

// decodeBlockHeader verifies the envelope (size, CRC, magic, version)
// and parses the header fields, leaving cur positioned at the first
// stream length.
func decodeBlockHeader(data []byte) (blockHeader, *byteCursor, error) {
	var h blockHeader
	if len(data) < 12 || len(data) > maxBlockBytes {
		return h, nil, fmt.Errorf("tsdb: block size %d out of range", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return h, nil, fmt.Errorf("tsdb: block CRC mismatch")
	}
	cur := &byteCursor{data: body}
	magic, err := cur.u32()
	if err != nil || magic != blockMagic {
		return h, nil, fmt.Errorf("tsdb: bad block magic")
	}
	version, err := cur.u8()
	if err != nil || version != blockVersion {
		return h, nil, fmt.Errorf("tsdb: unsupported block version %d", version)
	}
	count, err := cur.u32()
	if err != nil {
		return h, nil, err
	}
	// A sample costs at least one timestamp bit, so count can never
	// exceed 8× the file size — rejects hostile counts before any
	// count-proportional work.
	if int64(count) > int64(len(data))*8 {
		return h, nil, fmt.Errorf("tsdb: block count %d impossible for %d bytes", count, len(data))
	}
	h.count = int(count)
	if h.minTs, err = cur.f64(); err != nil {
		return h, nil, err
	}
	if h.maxTs, err = cur.f64(); err != nil {
		return h, nil, err
	}
	readString := func() (string, error) {
		n, err := cur.u16()
		if err != nil {
			return "", err
		}
		if int(n) > maxBlockString {
			return "", fmt.Errorf("tsdb: block string length %d too large", n)
		}
		b, err := cur.bytes(int(n))
		return string(b), err
	}
	if h.schema.hostname, err = readString(); err != nil {
		return h, nil, err
	}
	if h.schema.arch, err = readString(); err != nil {
		return h, nil, err
	}
	var fields [6]byte
	for i := range fields {
		if fields[i], err = cur.u8(); err != nil {
			return h, nil, err
		}
	}
	flags := fields[0]
	h.schema.memNil = flags&(1<<0) != 0
	h.schema.gpuSNil = flags&(1<<1) != 0
	h.schema.gpuDNil = flags&(1<<2) != 0
	h.schema.cpuNil = flags&(1<<3) != 0
	h.schema.nCPU = int(fields[1])
	h.schema.nMem = int(fields[2])
	h.schema.nGPUSock = int(fields[3])
	h.schema.nGPUDev = int(fields[4])
	h.schema.gpusPer = int(fields[5])
	if h.schema.memNil && h.schema.nMem != 0 ||
		h.schema.gpuSNil && h.schema.nGPUSock != 0 ||
		h.schema.gpuDNil && h.schema.nGPUDev != 0 ||
		h.schema.cpuNil && h.schema.nCPU != 0 {
		return h, nil, fmt.Errorf("tsdb: block schema flags contradict channel counts")
	}
	return h, cur, nil
}

// decodeBlock decodes a full block image back into samples.
func decodeBlock(data []byte) (blockHeader, []variorum.NodePower, error) {
	h, cur, err := decodeBlockHeader(data)
	if err != nil {
		return h, nil, err
	}
	readStream := func() ([]byte, error) {
		n, err := cur.u32()
		if err != nil {
			return nil, err
		}
		return cur.bytes(int(n))
	}
	tsStream, err := readStream()
	if err != nil {
		return h, nil, err
	}
	ts, err := decodeTimestamps(tsStream, h.count)
	if err != nil {
		return h, nil, err
	}
	s := h.schema
	cols := make([][]float64, s.channels())
	for i := range cols {
		stream, err := readStream()
		if err != nil {
			return h, nil, err
		}
		if cols[i], err = decodeValues(stream, h.count); err != nil {
			return h, nil, err
		}
	}

	capHint := h.count
	if capHint > preallocCap {
		capHint = preallocCap
	}
	out := make([]variorum.NodePower, 0, capHint)
	for i := 0; i < h.count; i++ {
		p := variorum.NodePower{
			Hostname:           s.hostname,
			Timestamp:          ts[i],
			Arch:               s.arch,
			GPUsPerSensorEntry: s.gpusPer,
		}
		c := 0
		p.NodeWatts = cols[c][i]
		c++
		if !s.cpuNil {
			p.SocketCPUWatts = make([]float64, s.nCPU)
			for j := 0; j < s.nCPU; j++ {
				p.SocketCPUWatts[j] = cols[c][i]
				c++
			}
		} else {
			c += s.nCPU
		}
		if !s.memNil {
			p.SocketMemWatts = make([]float64, s.nMem)
			for j := 0; j < s.nMem; j++ {
				p.SocketMemWatts[j] = cols[c][i]
				c++
			}
		} else {
			c += s.nMem
		}
		if !s.gpuSNil {
			p.SocketGPUWatts = make([]float64, s.nGPUSock)
			for j := 0; j < s.nGPUSock; j++ {
				p.SocketGPUWatts[j] = cols[c][i]
				c++
			}
		} else {
			c += s.nGPUSock
		}
		if !s.gpuDNil {
			p.GPUWatts = make([]float64, s.nGPUDev)
			for j := 0; j < s.nGPUDev; j++ {
				p.GPUWatts[j] = cols[c][i]
				c++
			}
		} else {
			c += s.nGPUDev
		}
		out = append(out, p)
	}
	return h, out, nil
}
