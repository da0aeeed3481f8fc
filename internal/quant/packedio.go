package quant

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"edgellm/internal/artifact"
	"edgellm/internal/tensor"
)

// A packed weight artifact is an artifact envelope (see package artifact)
// with magic "ELLMPKD1" and body:
//
//	kind<<8 | bits uint32 (kind 0 uniform, 1 NF) | rows uint32 |
//	cols uint32 | blockSize uint32 (0 for uniform) | nScale uint32 |
//	nCodes uint32 | scales float32-LE | codes
//
// A packed weight artifact dropped into a serving registry directory can
// never be silently mis-decoded, and because the magic differs from the
// adapter format's, requesting one *as an adapter* fails cleanly at the
// magic check (HTTP 422 at the front end), never a panic.
var packedMagic = [8]byte{'E', 'L', 'L', 'M', 'P', 'K', 'D', '1'}

const (
	packedKindUniform = 0
	packedKindNF      = 1

	// maxPackedDim bounds header-declared dimensions so a hostile
	// artifact cannot demand an absurd allocation before the CRC check.
	maxPackedDim = 1 << 28
)

// WriteTo serialises the packed matrix as an artifact, implementing
// io.WriterTo.
func (p *Packed) WriteTo(w io.Writer) (int64, error) {
	return writePacked(w, packedKindUniform, p.Bits, p.Rows, p.Cols, 0, p.Scale, p.Codes)
}

// WriteTo serialises the packed matrix as an artifact, implementing
// io.WriterTo.
func (p *PackedNF) WriteTo(w io.Writer) (int64, error) {
	return writePacked(w, packedKindNF, p.Bits, p.Rows, p.Cols, p.BlockSize, p.Scale, p.Codes)
}

func writePacked(w io.Writer, kind, bits, rows, cols, block int, scale []float32, codes []byte) (int64, error) {
	aw, err := artifact.NewWriter(w, "quant: packed artifact", packedMagic)
	if err != nil {
		return aw.N(), err
	}
	hdr := []uint32{uint32(kind)<<8 | uint32(bits), uint32(rows), uint32(cols), uint32(block), uint32(len(scale)), uint32(len(codes))}
	if err := binary.Write(aw, binary.LittleEndian, hdr); err != nil {
		return aw.N(), fmt.Errorf("quant: write packed header: %w", err)
	}
	if err := binary.Write(aw, binary.LittleEndian, scale); err != nil {
		return aw.N(), fmt.Errorf("quant: write packed scales: %w", err)
	}
	if _, err := aw.Write(codes); err != nil {
		return aw.N(), fmt.Errorf("quant: write packed codes: %w", err)
	}
	err = aw.Close()
	return aw.N(), err
}

// ReadPackedFrom reads one packed artifact written by WriteTo, verifying
// the footer before returning. The result is a *Packed or *PackedNF
// (both tensor.PackedMat). Truncated, bit-flipped, or malformed artifacts
// fail with a diagnostic error — never a panic.
func ReadPackedFrom(r io.Reader) (tensor.PackedMat, int64, error) {
	ar, err := artifact.NewReader(r, "quant: packed artifact", packedMagic)
	if err != nil {
		return nil, ar.N(), err
	}
	var hdr [6]uint32
	if err := binary.Read(ar, binary.LittleEndian, &hdr); err != nil {
		return nil, ar.N(), fmt.Errorf("quant: read packed header: %w", err)
	}
	kind, bits := int(hdr[0]>>8), int(hdr[0]&0xff)
	rows, cols, block := int(hdr[1]), int(hdr[2]), int(hdr[3])
	nScale, nCodes := int(hdr[4]), int(hdr[5])
	if kind != packedKindUniform && kind != packedKindNF {
		return nil, ar.N(), fmt.Errorf("quant: unknown packed kind %d", kind)
	}
	if bits < 2 || bits > 8 {
		return nil, ar.N(), fmt.Errorf("quant: packed bits %d out of [2,8]", bits)
	}
	if rows < 1 || cols < 1 || rows > maxPackedDim || cols > maxPackedDim || rows*cols > maxPackedDim {
		return nil, ar.N(), fmt.Errorf("quant: implausible packed shape (%d,%d)", rows, cols)
	}
	if want := (rows*cols*bits + 7) / 8; nCodes != want {
		return nil, ar.N(), fmt.Errorf("quant: packed code bytes %d, want %d for (%d,%d)@%db", nCodes, want, rows, cols, bits)
	}
	var wantScale int
	switch kind {
	case packedKindUniform:
		if block != 0 {
			return nil, ar.N(), fmt.Errorf("quant: uniform packed artifact declares block size %d", block)
		}
		wantScale = cols
	case packedKindNF:
		if block < 1 || block > rows*cols {
			return nil, ar.N(), fmt.Errorf("quant: packed NF block size %d out of [1,%d]", block, rows*cols)
		}
		wantScale = (rows*cols + block - 1) / block
	}
	if nScale != wantScale {
		return nil, ar.N(), fmt.Errorf("quant: packed scale count %d, want %d", nScale, wantScale)
	}
	// Grow the payload as the bytes arrive, so a forged shape on a short
	// input fails without first allocating the full claimed size.
	payload, err := io.ReadAll(io.LimitReader(ar, int64(4*nScale+nCodes)))
	if err == nil && len(payload) != 4*nScale+nCodes {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, ar.N(), fmt.Errorf("quant: read packed payload: %w", err)
	}
	scale := make([]float32, nScale)
	for i := range scale {
		scale[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	codes := payload[4*nScale:]
	if err := ar.Verify(); err != nil {
		return nil, ar.N(), err
	}
	if kind == packedKindNF {
		return &PackedNF{Bits: bits, Rows: rows, Cols: cols, BlockSize: block, Codes: codes, Scale: scale}, ar.N(), nil
	}
	return &Packed{Bits: bits, Rows: rows, Cols: cols, Codes: codes, Scale: scale}, ar.N(), nil
}
