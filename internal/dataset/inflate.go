package dataset

import "io"

const (
	// inflateBufSize is the unit of hand-off between the two read-back
	// stages: large enough that the channel operations are rare, small
	// enough that the decoder starts soon after a chunk opens.
	inflateBufSize = 256 << 10
	// inflateBufs is the number of buffers in flight: one being filled,
	// one being decoded, two queued to absorb jitter between the stages.
	inflateBufs = 4
)

// inflater runs the first stage of the read-back: it decompresses a
// chunk on a goroutine of its own and serves the output through Read
// to the decoding goroutine. Filled buffers travel through full and
// come back through free; only inflateBufs buffers exist, so no send on
// either channel can block. One inflater serves every chunk of a
// ForEach call, one at a time (start, read, wait), keeping its buffers.
type inflater struct {
	free chan []byte
	full chan []byte
	stop chan struct{}
	// err is the decompressor's error; it is written before full is
	// closed and read only after.
	err error

	held []byte // the buffer Read is consuming
	rest []byte // its unread part
}

// start begins decompressing src on a new goroutine.
func (in *inflater) start(src io.Reader) {
	if in.free == nil {
		in.free = make(chan []byte, inflateBufs)
		for range inflateBufs {
			in.free <- make([]byte, inflateBufSize)
		}
	}
	in.full = make(chan []byte, inflateBufs)
	in.stop = make(chan struct{})
	in.err = nil
	go in.fill(src, in.full, in.stop)
}

// fill is the decompressing goroutine: it fills free buffers from src
// and queues them on full until src ends, fails, or stop is closed.
func (in *inflater) fill(src io.Reader, full chan<- []byte, stop <-chan struct{}) {
	defer close(full)
	for {
		// A closed stop wins over a free buffer: the decoder has given
		// up, so decompressing further is wasted work.
		select {
		case <-stop:
			return
		default:
		}
		var buf []byte
		select {
		case buf = <-in.free:
		case <-stop:
			return
		}
		n, err := readFull(src, buf)
		if n > 0 {
			full <- buf[:n]
		} else {
			in.free <- buf
		}
		if err != nil {
			if err != io.EOF {
				in.err = err
			}
			return
		}
	}
}

// readFull reads into buf until it is full or src reports an error.
// Unlike io.ReadFull it passes io.ErrUnexpectedEOF from a truncated gzip
// stream through, instead of also using it for a short final read.
func readFull(src io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := src.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Read serves the decompressed stream to the decoding goroutine.
func (in *inflater) Read(p []byte) (int, error) {
	for len(in.rest) == 0 {
		if in.held != nil {
			in.free <- in.held[:cap(in.held)]
			in.held = nil
		}
		buf, ok := <-in.full
		if !ok {
			if in.err != nil {
				return 0, in.err
			}
			return 0, io.EOF
		}
		in.held, in.rest = buf, buf
	}
	n := copy(p, in.rest)
	in.rest = in.rest[n:]
	return n, nil
}

// wait stops the decompressor if it is still running, waits for it to
// exit and takes every buffer back. The chunk's file may be closed once
// wait returns.
func (in *inflater) wait() {
	close(in.stop)
	if in.held != nil {
		in.free <- in.held[:cap(in.held)]
		in.held, in.rest = nil, nil
	}
	for buf := range in.full {
		in.free <- buf[:cap(buf)]
	}
}
