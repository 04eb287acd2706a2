// Package wire is the shared framed-protocol layer: each message is a
// 4-byte big-endian length followed by one JSON object — the simnetd
// lineage (framed datagrams over a stream) with JSON instead of raw
// packets, so every protocol built on it is inspectable with nc and a
// hex dump. One request yields exactly one response; requests on one
// connection are answered in order. Both scentd's query API and the
// campaign coordinator speak this framing, so there is exactly one
// implementation of the length cap, the header encoding, and the
// goroutine-per-connection serving loop.
package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// MaxFrame caps a single message. Far above any legal request and
// roomy enough for a full vendor census or a streamed shard result
// batch; anything larger is a framing desync or abuse.
const MaxFrame = 4 << 20

// WriteFrame marshals v and writes it as one length-prefixed frame.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encoding frame: %w", err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte cap", len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame into v. io.EOF before the
// first header byte is returned as-is (a clean connection close).
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte cap", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("wire: reading frame body: %w", err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("wire: decoding frame: %w", err)
	}
	return nil
}

// drainGrace is how long a cancelled Serve keeps reading: a client
// that polls, such as a campaign node waiting to hear that the campaign
// is done, gets one more answer, and an idle or stalled client holds
// Serve no longer than this.
const drainGrace = 250 * time.Millisecond

// Handler answers one connection's requests until EOF or error. It
// runs on its own goroutine; returning nil means a clean close.
type Handler func(ctx context.Context, conn net.Conn) error

// Serve accepts and handles connections until ctx is cancelled. Each
// connection gets its own goroutine running h; Serve returns after
// every handler has drained. Cancelling ctx closes the listener and
// gives every open connection drainGrace to send its next request: a
// handler still waiting to read after that, on an idle client or one
// stalled mid-frame, returns, while an answer being written completes.
// A non-nil handler error is reported to logf (when set) rather than
// tearing down the server — one misbehaving client must not take the
// service with it; a read timing out after cancellation is a clean
// close, not an error.
func Serve(ctx context.Context, ln net.Listener, h Handler, logf func(format string, args ...any)) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		conns    = map[net.Conn]struct{}{}
		stopping time.Time // the read deadline once cancelled
	)
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ctx.Done()
		ln.Close()
		mu.Lock()
		stopping = time.Now().Add(drainGrace)
		for conn := range conns {
			// An error means the connection is already closing.
			_ = conn.SetReadDeadline(stopping)
		}
		mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		mu.Lock()
		conns[conn] = struct{}{}
		if !stopping.IsZero() {
			_ = conn.SetReadDeadline(stopping)
		}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				conn.Close()
			}()
			err := h(ctx, conn)
			if err == nil || logf == nil || (ctx.Err() != nil && errors.Is(err, os.ErrDeadlineExceeded)) {
				return
			}
			logf("conn %s: %v", conn.RemoteAddr(), err)
		}()
	}
}
