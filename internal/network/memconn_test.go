package network

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// The MemConn tests pin MemTransport's connection to net.Pipe's error
// semantics and to socket-like buffering and deadlines. CI runs them
// many times under the race detector: deadline re-arms race the timer
// callback, and Close races blocked reads and writes.

// memConnSlack is the scheduling slack a deadline may fire late by.
const memConnSlack = time.Second

// memPair returns the two ends of one fresh in-memory connection, closed
// when the test ends.
func memPair(t *testing.T) (a, b *memConn) {
	t.Helper()
	a, b = newMemConn("test")
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

// TestMemConnOverTransport: a MemTransport dial and accept yield the two
// ends of one connection, carrying bytes both ways.
func TestMemConnOverTransport(t *testing.T) {
	tr := NewMemTransport()
	l, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	if server == nil {
		t.FailNow()
	}
	defer func() { _ = client.Close(); _ = server.Close() }()
	if client.LocalAddr().String() != l.Addr().String() || server.RemoteAddr().String() != l.Addr().String() {
		t.Errorf("addresses %v / %v, want the listener's %v", client.LocalAddr(), server.RemoteAddr(), l.Addr())
	}
	for _, dir := range []struct{ w, r net.Conn }{{client, server}, {server, client}} {
		if _, err := dir.w.Write([]byte("frame")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(dir.r, buf); err != nil || string(buf) != "frame" {
			t.Fatalf("read %q, %v; want %q", buf, err, "frame")
		}
	}
}

// TestMemConnReadDeadline: a reader with no data fails with
// os.ErrDeadlineExceeded at its deadline, not before and not much after,
// and keeps failing until the deadline moves; a deadline in the past
// fails a read at once, even with bytes buffered.
func TestMemConnReadDeadline(t *testing.T) {
	a, b := memPair(t)
	const timeout = 50 * time.Millisecond
	start := time.Now()
	if err := a.SetReadDeadline(start.Add(timeout)); err != nil {
		t.Fatal(err)
	}
	_, err := a.Read(make([]byte, 1))
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read err = %v, want os.ErrDeadlineExceeded", err)
	}
	if elapsed < timeout || elapsed > timeout+memConnSlack {
		t.Errorf("read failed after %v, want %v plus at most %v", elapsed, timeout, memConnSlack)
	}
	if _, err := b.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("read past an expired deadline = %v, want os.ErrDeadlineExceeded before buffered data", err)
	}
	if err := a.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if n, err := a.Read(make([]byte, 1)); n != 1 || err != nil {
		t.Errorf("read after disarming = (%d, %v), want the buffered byte", n, err)
	}
	if err := a.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("read under a past deadline = %v, want os.ErrDeadlineExceeded", err)
	}
}

// TestMemConnWriteDeadline: a writer whose peer never reads returns at
// once while the buffer has room, and once memConnBuffer bytes are
// unread it waits and fails with os.ErrDeadlineExceeded at its
// deadline, having written exactly what fit.
func TestMemConnWriteDeadline(t *testing.T) {
	a, _ := memPair(t)
	const timeout = 50 * time.Millisecond
	if n, err := a.Write(make([]byte, memConnBuffer-1)); n != memConnBuffer-1 || err != nil {
		t.Fatalf("write into an empty buffer = (%d, %v)", n, err)
	}
	start := time.Now()
	if err := a.SetWriteDeadline(start.Add(timeout)); err != nil {
		t.Fatal(err)
	}
	n, err := a.Write(make([]byte, 2))
	elapsed := time.Since(start)
	if n != 1 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past the buffer = (%d, %v), want (1, os.ErrDeadlineExceeded)", n, err)
	}
	if elapsed < timeout || elapsed > timeout+memConnSlack {
		t.Errorf("write failed after %v, want %v plus at most %v", elapsed, timeout, memConnSlack)
	}
}

// TestMemConnDeadlineMovedLater: the firing of a deadline moved later
// before it fires does not expire the later one, and the zero time
// disarms a deadline.
func TestMemConnDeadlineMovedLater(t *testing.T) {
	for _, tc := range []struct {
		name  string
		later time.Duration // 0 disarms
	}{{"moved later", 10 * time.Second}, {"disarmed", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := memPair(t)
			const early = 20 * time.Millisecond
			if err := a.SetReadDeadline(time.Now().Add(early)); err != nil {
				t.Fatal(err)
			}
			var later time.Time
			if tc.later > 0 {
				later = time.Now().Add(tc.later)
			}
			if err := a.SetReadDeadline(later); err != nil {
				t.Fatal(err)
			}
			wrote := make(chan error, 1)
			go func() {
				time.Sleep(5 * early)
				_, err := b.Write([]byte{7})
				wrote <- err
			}()
			buf := make([]byte, 1)
			if n, err := a.Read(buf); n != 1 || err != nil || buf[0] != 7 {
				t.Errorf("read = (%d, %v, %d), want the byte written after the first deadline", n, err, buf[0])
			}
			if err := <-wrote; err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMemConnDeadlineExtendedFiresAtLastInstant: a read deadline moved
// later 1,000 times fails the blocked read at its last instant and never
// before. Each move lands after the pending timer's firing and is only
// stored; that firing finds the later instant and re-arms the timer.
func TestMemConnDeadlineExtendedFiresAtLastInstant(t *testing.T) {
	a, _ := memPair(t)
	const (
		first = 100 * time.Millisecond
		step  = 100 * time.Microsecond
		moves = 1000
	)
	start := time.Now()
	last := start.Add(first)
	if err := a.SetReadDeadline(last); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= moves; i++ {
		last = start.Add(first + time.Duration(i)*step)
		if err := a.SetReadDeadline(last); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		_, err := a.Read(make([]byte, 1))
		done <- result{err, time.Now()}
	}()
	select {
	case r := <-done:
		if !errors.Is(r.err, os.ErrDeadlineExceeded) {
			t.Fatalf("read err = %v, want os.ErrDeadlineExceeded", r.err)
		}
		if r.at.Before(last) {
			t.Errorf("read failed %v before the last deadline", last.Sub(r.at))
		}
		if late := r.at.Sub(last); late > memConnSlack {
			t.Errorf("read failed %v after the last deadline, want at most %v", late, memConnSlack)
		}
	case <-time.After(time.Until(last) + 5*memConnSlack):
		t.Fatalf("read still blocked %v after its last deadline: the timer was not re-armed", 5*memConnSlack)
	}
}

// TestMemConnDeadlineExtendedThenMovedEarlier: after 1,000 moves later,
// which only store the deadline, a move earlier than the pending timer's
// firing re-arms the timer, and the read fails at the earlier instant.
func TestMemConnDeadlineExtendedThenMovedEarlier(t *testing.T) {
	a, _ := memPair(t)
	const (
		far   = 10 * time.Second
		moves = 1000
		early = 50 * time.Millisecond
	)
	start := time.Now()
	for i := 0; i <= moves; i++ {
		if err := a.SetReadDeadline(start.Add(far + time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(early)
	if err := a.SetReadDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	_, err := a.Read(make([]byte, 1))
	at := time.Now()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read err = %v, want os.ErrDeadlineExceeded", err)
	}
	if at.Before(deadline) || at.Sub(deadline) > memConnSlack {
		t.Errorf("read failed %v after the earlier deadline, want 0 to %v", at.Sub(deadline), memConnSlack)
	}
}

// TestMemConnCloseWakesBlocked: closing either end wakes a Read blocked
// for data and a Write blocked on a full buffer, on both ends, with
// net.Pipe's errors — io.ErrClosedPipe on the closing end and for every
// write, io.EOF for the peer's read.
func TestMemConnCloseWakesBlocked(t *testing.T) {
	for _, tc := range []struct {
		name             string
		closeLocal       bool
		wantRead, wantWr error
	}{
		{"local close", true, io.ErrClosedPipe, io.ErrClosedPipe},
		{"peer close", false, io.EOF, io.ErrClosedPipe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := memPair(t)
			// Fill a's outgoing buffer so its next write blocks.
			if _, err := a.Write(make([]byte, memConnBuffer)); err != nil {
				t.Fatal(err)
			}
			errs := make(chan [2]error, 1)
			var wg sync.WaitGroup
			var readErr, writeErr error
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, readErr = a.Read(make([]byte, 1))
			}()
			go func() {
				defer wg.Done()
				_, writeErr = a.Write([]byte{1})
			}()
			go func() {
				wg.Wait()
				errs <- [2]error{readErr, writeErr}
			}()
			// Give both calls time to block; they fail the same way if the
			// close lands first.
			time.Sleep(20 * time.Millisecond)
			if tc.closeLocal {
				_ = a.Close()
			} else {
				_ = b.Close()
			}
			select {
			case got := <-errs:
				if !errors.Is(got[0], tc.wantRead) || !errors.Is(got[1], tc.wantWr) {
					t.Errorf("read, write = %v, %v; want %v, %v", got[0], got[1], tc.wantRead, tc.wantWr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("blocked read and write still waiting 5 s after Close")
			}
			if err := a.Close(); err != nil {
				t.Errorf("second Close = %v, want nil", err)
			}
			if err := a.SetReadDeadline(time.Now().Add(time.Second)); tc.closeLocal && !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("deadline on a closed end = %v, want io.ErrClosedPipe", err)
			}
		})
	}
}

// TestMemConnDrainsBeforeEOF: bytes written before the peer's Close are
// read before io.EOF, and the closed peer takes no more writes.
func TestMemConnDrainsBeforeEOF(t *testing.T) {
	a, b := memPair(t)
	if _, err := a.Write([]byte("last frame")); err != nil {
		t.Fatal(err)
	}
	_ = a.Close()
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "last frame" {
		t.Errorf("read after the peer's close = (%q, %v), want %q then io.EOF", got, err, "last frame")
	}
	if _, err := b.Write([]byte{1}); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("write to a closed peer = %v, want io.ErrClosedPipe", err)
	}
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("read on the closed end = %v, want io.ErrClosedPipe", err)
	}
}

// TestMemConnWritesDoNotInterleave: concurrent writes on one end, each
// larger than the buffer so it must wait midway, arrive whole and in
// some order, never interleaved.
func TestMemConnWritesDoNotInterleave(t *testing.T) {
	a, b := memPair(t)
	const size = 3 * memConnBuffer / 2
	var wg sync.WaitGroup
	for _, fill := range []byte{'x', 'y', 'z'} {
		wg.Add(1)
		go func(fill byte) {
			defer wg.Done()
			if _, err := a.Write(bytes.Repeat([]byte{fill}, size)); err != nil {
				t.Error(err)
			}
		}(fill)
	}
	got := make([]byte, 3*size)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < len(got); i += size {
		if run := got[i : i+size]; !bytes.Equal(run, bytes.Repeat(run[:1], size)) {
			t.Fatalf("write %d of the stream interleaves other writes", i/size)
		}
	}
}

// TestMemConnBufferSettles: a reader lagging its writer by a few frames
// keeps the buffer at that high-water mark however many bytes pass.
func TestMemConnBufferSettles(t *testing.T) {
	a, b := memPair(t)
	frame := make([]byte, 100)
	buf := make([]byte, len(frame))
	for i := 0; i < 8; i++ {
		if _, err := a.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		if _, err := a.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(a.wr.buf); c > 4096 {
		t.Errorf("buffer grew to cap %d with at most %d bytes unread", c, 9*len(frame))
	}
}

// TestMemConnSettledCycleZeroAllocs: once its deadline timer exists, a
// SetReadDeadline, Write and Read cycle allocates nothing.
func TestMemConnSettledCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	a, b := memPair(t)
	frame := AppendFinish(nil)
	buf := make([]byte, len(frame))
	cycle := func() {
		if err := b.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a settled deadline, write and read cycle allocates %.1f", n)
	}
}
