// Package fixture exercises dut/framediscipline.
package fixture

import (
	"encoding/binary"
	"io"
	"net"
	"time"
)

type frame struct{}

func setDeadline(c net.Conn, d time.Duration)          {}
func setWriteDeadline(c net.Conn, d time.Duration)     {}
func ReadFrame(c net.Conn) (frame, error)              { return frame{}, nil }
func WriteHello(c net.Conn, id uint32) error           { return nil }
func WriteVoteBatch(c net.Conn, bits []uint64) error   { return nil }
func WriteAggSum(c net.Conn, sums []uint64) error      { return nil }
func WriteAggHello(c net.Conn, members []uint32) error { return nil }
func SampleInto(buf []int)                             {}

func badRaw(c net.Conn, w io.Writer, p []byte) {
	_, _ = c.Write(p)                                // want "raw conn.Write bypasses the validated frame encoder"
	_, _ = c.Read(p)                                 // want "raw conn.Read bypasses the validated frame encoder"
	_ = binary.Write(w, binary.BigEndian, uint64(0)) // want "binary.Write writes an unframed stream"
}

func badRead(c net.Conn) {
	_, _ = ReadFrame(c) // want "frame read without a deadline"
}

func badStale(c net.Conn, buf []int) {
	setDeadline(c, time.Second)
	SampleInto(buf)
	_ = WriteHello(c, 1) // want "frame write under a deadline already consumed"
}

func badStaleBatch(c net.Conn, buf []int, bits []uint64) {
	setWriteDeadline(c, time.Second)
	SampleInto(buf)
	_ = WriteVoteBatch(c, bits) // want "frame write under a deadline already consumed"
}

func badStaleAgg(c net.Conn, buf []int, sums []uint64) {
	setWriteDeadline(c, time.Second)
	SampleInto(buf)
	_ = WriteAggSum(c, sums) // want "frame write under a deadline already consumed"
}

func goodAgg(c net.Conn, members []uint32, sums []uint64) error {
	setWriteDeadline(c, time.Second)
	if err := WriteAggHello(c, members); err != nil {
		return err
	}
	setWriteDeadline(c, time.Second) // fresh budget per frame: clean
	return WriteAggSum(c, sums)
}

func goodBatch(c net.Conn, buf []int, bits []uint64) error {
	SampleInto(buf)
	setWriteDeadline(c, time.Second) // fresh write budget after sampling: clean
	return WriteVoteBatch(c, bits)
}

func good(c net.Conn, buf []int) error {
	setDeadline(c, time.Second)
	if _, err := ReadFrame(c); err != nil {
		return err
	}
	SampleInto(buf)
	setDeadline(c, time.Second) // refreshed after sampling: clean
	return WriteHello(c, 1)
}

type wrapConn struct{ net.Conn }

func (w *wrapConn) Write(p []byte) (int, error) {
	return w.Conn.Write(p) // Write wrapper method: clean
}
