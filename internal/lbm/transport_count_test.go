package lbm

import (
	"errors"
	"testing"

	"lbmm/internal/ring"
)

// TestLoopbackRoundCount pins the count contract on the loopback transport:
// what a round delivers is consumed exactly. Asking for more values than
// were sent, leaving delivered values unread at the next barrier, and
// expecting a message from a peer (loopback has none) all fail with an error
// wrapping ErrRoundCount instead of handing the engine another message's
// values.
func TestLoopbackRoundCount(t *testing.T) {
	var dst [2]ring.Value
	t.Run("overrun", func(t *testing.T) {
		lb := &Loopback{}
		if err := lb.Send(0, 1, 3, []ring.Value{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := lb.Deliver(0); err != nil {
			t.Fatal(err)
		}
		if err := lb.Recv(1, 3, dst[:]); err != nil || dst != [2]ring.Value{1, 2} {
			t.Fatalf("Recv = %v, %v; want the sent payload", dst, err)
		}
		if err := lb.Recv(2, 4, dst[:1]); !errors.Is(err, ErrRoundCount) {
			t.Fatalf("Recv past the delivered values = %v, want ErrRoundCount", err)
		}
	})
	t.Run("unconsumed", func(t *testing.T) {
		lb := &Loopback{}
		if err := lb.Send(0, 1, 3, []ring.Value{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := lb.Deliver(0); err != nil {
			t.Fatal(err)
		}
		if err := lb.Deliver(1); !errors.Is(err, ErrRoundCount) {
			t.Fatalf("Deliver over unread values = %v, want ErrRoundCount", err)
		}
	})
	t.Run("expect", func(t *testing.T) {
		lb := &Loopback{}
		if err := lb.Expect(0, 1, 3, 1); !errors.Is(err, ErrRoundCount) {
			t.Fatalf("Expect on loopback = %v, want ErrRoundCount", err)
		}
	})
	t.Run("copies", func(t *testing.T) {
		// Send copies: the caller may reuse its payload slice at once.
		lb := &Loopback{}
		buf := []ring.Value{7}
		if err := lb.Send(0, 1, 3, buf); err != nil {
			t.Fatal(err)
		}
		buf[0] = 8
		if err := lb.Send(0, 2, 4, buf); err != nil {
			t.Fatal(err)
		}
		if err := lb.Deliver(0); err != nil {
			t.Fatal(err)
		}
		for _, want := range []ring.Value{7, 8} {
			if err := lb.Recv(0, 0, dst[:1]); err != nil || dst[0] != want {
				t.Fatalf("Recv = %v, %v; want %v", dst[0], err, want)
			}
		}
	})
}
