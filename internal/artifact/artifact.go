// Package artifact owns the on-disk envelope shared by every edgellm
// artifact: model checkpoints, LoRA adapters, resumable train snapshots
// and LUC-packed weight matrices. Each is framed the same way:
//
//	8-byte magic | body | footer "ELCF" | uint32-LE CRC32-IEEE over
//	the magic and the body
//
// The magic names the artifact kind and its format version. The body
// belongs to the owning package, which streams it through a Writer or a
// Reader; most bodies open with a Header, a uint32-LE length followed by
// that many bytes of JSON. The checksummed footer turns a torn write,
// truncation or bit flip anywhere before it into a load error instead of
// a silently corrupted artifact. A body may embed a whole artifact (a
// snapshot nests a checkpoint): the inner envelope, footer included, is
// then just part of the outer body.
//
// WriteFile puts an artifact on disk crash-safely.
package artifact

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// MaxHeaderBytes bounds a JSON header, so a corrupt length cannot demand
// a large allocation before the checksum is reached.
const MaxHeaderBytes = 1 << 20

var footerMagic = [4]byte{'E', 'L', 'C', 'F'}

// Writer frames one artifact: NewWriter emits the magic, Write folds the
// body into the checksum, and Close appends the footer.
type Writer struct {
	w    io.Writer
	kind string
	crc  hash.Hash32
	n    int64
}

// NewWriter writes magic to w and returns a Writer for the body. kind
// prefixes every error, e.g. "nn: checkpoint". The Writer is returned
// even with an error, so that N counts the bytes written.
func NewWriter(w io.Writer, kind string, magic [8]byte) (*Writer, error) {
	aw := &Writer{w: w, kind: kind, crc: crc32.NewIEEE()}
	if _, err := aw.Write(magic[:]); err != nil {
		return aw, fmt.Errorf("%s: write magic: %w", kind, err)
	}
	return aw, nil
}

// Write writes body bytes.
func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.crc.Write(p[:n])
	w.n += int64(n)
	return n, err
}

// WriteHeader writes v as a length-prefixed JSON header.
func (w *Writer) WriteHeader(v any) error {
	js, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: marshal header: %w", w.kind, err)
	}
	if len(js) > MaxHeaderBytes {
		return fmt.Errorf("%s: header is %d bytes, limit %d", w.kind, len(js), MaxHeaderBytes)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(js))); err != nil {
		return fmt.Errorf("%s: write header length: %w", w.kind, err)
	}
	if _, err := w.Write(js); err != nil {
		return fmt.Errorf("%s: write header: %w", w.kind, err)
	}
	return nil
}

// Close appends the footer. It does not close the underlying writer.
func (w *Writer) Close() error {
	var f [8]byte
	copy(f[:], footerMagic[:])
	binary.LittleEndian.PutUint32(f[4:], w.crc.Sum32())
	n, err := w.w.Write(f[:])
	w.n += int64(n)
	if err != nil {
		return fmt.Errorf("%s: write footer: %w", w.kind, err)
	}
	return nil
}

// N returns the number of bytes written so far, magic and footer included.
func (w *Writer) N() int64 { return w.n }

// Reader unframes one artifact: NewReader checks the magic, Read folds
// the body into the checksum, and Verify checks the footer.
type Reader struct {
	r     io.Reader
	kind  string
	crc   hash.Hash32
	n     int64
	magic [8]byte
}

// NewReader reads the magic from r and accepts it if it is one of
// magics. kind prefixes every error, e.g. "nn: checkpoint". The Reader is
// returned even with an error, so that N counts the bytes consumed.
func NewReader(r io.Reader, kind string, magics ...[8]byte) (*Reader, error) {
	ar := &Reader{r: r, kind: kind, crc: crc32.NewIEEE()}
	if _, err := io.ReadFull(ar, ar.magic[:]); err != nil {
		return ar, fmt.Errorf("%s: read magic: %w", kind, err)
	}
	for _, m := range magics {
		if ar.magic == m {
			return ar, nil
		}
	}
	return ar, fmt.Errorf("%s: bad magic %q", kind, ar.magic)
}

// Magic returns the magic NewReader accepted.
func (r *Reader) Magic() [8]byte { return r.magic }

// Read reads body bytes.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.crc.Write(p[:n])
	r.n += int64(n)
	return n, err
}

// ReadHeader reads a length-prefixed JSON header into v.
func (r *Reader) ReadHeader(v any) error {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("%s: read header length: %w", r.kind, err)
	}
	if n > MaxHeaderBytes {
		return fmt.Errorf("%s: implausible header length %d", r.kind, n)
	}
	js := make([]byte, n)
	if _, err := io.ReadFull(r, js); err != nil {
		return fmt.Errorf("%s: read header: %w", r.kind, err)
	}
	if err := json.Unmarshal(js, v); err != nil {
		return fmt.Errorf("%s: parse header: %w", r.kind, err)
	}
	return nil
}

// Verify reads the footer and checks it against every byte read so far.
func (r *Reader) Verify() error {
	want := r.crc.Sum32()
	var f [8]byte
	n, err := io.ReadFull(r.r, f[:])
	r.n += int64(n)
	switch {
	case err != nil:
		return fmt.Errorf("%s: truncated in footer: %w", r.kind, err)
	case [4]byte(f[:4]) != footerMagic:
		return fmt.Errorf("%s: bad footer %q (truncated or corrupt)", r.kind, f[:4])
	}
	if sum := binary.LittleEndian.Uint32(f[4:]); sum != want {
		return fmt.Errorf("%s: checksum mismatch (stored %08x, computed %08x): artifact is corrupt", r.kind, sum, want)
	}
	return nil
}

// N returns the number of bytes read so far, magic and footer included.
func (r *Reader) N() int64 { return r.n }

// WriteFile writes whatever write produces to path crash-safely: the bytes
// go to a temp file in the same directory, are flushed and fsynced, and
// only then renamed over path. A crash or failure at any point leaves
// either the old file or no file, never a torn one, and no temp file.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("artifact: create temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("artifact: flush %s: %w", tmp.Name(), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("artifact: fsync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("artifact: close %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("artifact: rename into place: %w", err)
	}
	// Persist the rename itself; best-effort (some filesystems refuse
	// directory fsync).
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
