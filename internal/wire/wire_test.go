package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

type payload struct {
	Op   string `json:"op"`
	Body string `json:"body,omitempty"`
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := payload{Op: "ping", Body: "hello"}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	var out payload
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
	// A second read on the drained buffer is a clean close.
	if err := ReadFrame(&buf, &out); err != io.EOF {
		t.Fatalf("read past end: got %v want io.EOF", err)
	}
}

func TestFrameCapBothSides(t *testing.T) {
	big := payload{Body: strings.Repeat("x", MaxFrame)}
	if err := WriteFrame(io.Discard, big); err == nil {
		t.Fatal("WriteFrame accepted an over-cap body")
	}
	// A forged header claiming an over-cap body must be rejected before
	// any allocation of that size.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var v payload
	if err := ReadFrame(bytes.NewReader(hdr[:]), &v); err == nil {
		t.Fatal("ReadFrame accepted an over-cap header")
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload{Op: "ping"}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	whole := buf.Bytes()
	// Truncated header (mid-length) and truncated body are both hard
	// errors, not EOF: the peer died mid-frame.
	for _, cut := range []int{2, len(whole) - 3} {
		var v payload
		err := ReadFrame(bytes.NewReader(whole[:cut]), &v)
		if err == nil || err == io.EOF {
			t.Fatalf("truncation at %d: got %v, want a non-EOF error", cut, err)
		}
	}
}

// TestServeLifecycle proves the extracted accept loop: concurrent
// connections each get a handler goroutine, cancellation closes the
// listener, and Serve returns only after every handler drains.
func TestServeLifecycle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	echo := func(ctx context.Context, conn net.Conn) error {
		for {
			var req payload
			if err := ReadFrame(conn, &req); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			if err := WriteFrame(conn, req); err != nil {
				return err
			}
		}
	}
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, echo, t.Logf) }()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			for j := 0; j < 8; j++ {
				in := payload{Op: "echo", Body: strings.Repeat("z", i+j+1)}
				if err := WriteFrame(conn, in); err != nil {
					t.Errorf("client write: %v", err)
					return
				}
				var out payload
				if err := ReadFrame(conn, &out); err != nil {
					t.Errorf("client read: %v", err)
					return
				}
				if out != in {
					t.Errorf("echo mismatch: got %+v want %+v", out, in)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
}

// TestServeReturnsWithOpenClients: cancelling Serve's context must not
// wait for clients to hang up. An idle client and one that sent only a
// frame header hold their handlers in a read; Serve must still return
// within a second and log nothing. An answer being written when the
// cancel came must reach its client, and so must the answer to a
// request sent right after it (a polling client hearing that the
// service is done).
func TestServeReturnsWithOpenClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered := make(chan struct{}, 3)
	answering := make(chan struct{})
	h := func(ctx context.Context, conn net.Conn) error {
		entered <- struct{}{}
		for {
			var req payload
			if err := ReadFrame(conn, &req); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			if req.Op == "slow" {
				close(answering)
				<-ctx.Done()
			}
			if err := WriteFrame(conn, req); err != nil {
				return err
			}
		}
	}
	var mu sync.Mutex
	var logged []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, h, logf) }()

	dial := func() net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	idle := dial()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 16)
	if _, err := dial().Write(hdr[:]); err != nil {
		t.Fatalf("header write: %v", err)
	}
	slow := dial()
	req := payload{Op: "slow", Body: "answered after cancel"}
	if err := WriteFrame(slow, req); err != nil {
		t.Fatalf("request write: %v", err)
	}
	for i := 0; i < 3; i++ {
		<-entered
	}
	<-answering

	cancel()
	last := payload{Op: "echo", Body: "sent after cancel"}
	if err := WriteFrame(idle, last); err != nil {
		t.Fatalf("write after cancel: %v", err)
	}
	var echoed payload
	if err := ReadFrame(idle, &echoed); err != nil || echoed != last {
		t.Errorf("answer after cancel: got %+v, %v; want %+v", echoed, err, last)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve did not return within 1s of cancellation with clients connected")
	}
	var got payload
	if err := ReadFrame(slow, &got); err != nil || got != req {
		t.Errorf("in-flight answer: got %+v, %v; want %+v", got, err, req)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) > 0 {
		t.Errorf("shutdown logged handler errors: %q", logged)
	}
}
