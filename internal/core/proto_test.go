package core

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"simcloud/internal/wire"
)

// helloServer answers every hello with the given payload and hangs up on
// any other frame. It returns its address.
func helloServer(t *testing.T, hello []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					typ, _, err := wire.ReadFrame(conn)
					if err != nil || typ != wire.MsgHello {
						return
					}
					if wire.WriteFrame(conn, wire.MsgHelloAck, hello) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDialRefusesOtherProtocolVersion: a server speaking another wire
// protocol version is refused at dial, with an error naming both versions.
// The case that matters is a server built before the hello carried a
// version — its hello ends after the entry count and decodes as version 0 —
// whose candidate replies are full entry records: without the check they
// would surface only later, as a confusing decryption failure.
func TestDialRefusesOtherProtocolVersion(t *testing.T) {
	key, _ := testKey(t)
	hello := func(proto uint32) []byte {
		return wire.HelloResp{Mode: wire.HelloModeEncrypted, NumPivots: testPivotCount, Proto: proto}.Encode()
	}
	current := hello(wire.Proto)
	for _, tc := range []struct {
		name  string
		hello []byte
		peer  uint32
	}{
		{"pre-version server", current[:len(current)-4], 0},
		{"version-1 server", hello(1), 1},
		{"newer server", hello(wire.Proto + 1), wire.Proto + 1},
	} {
		c, err := DialEncrypted(helloServer(t, tc.hello), key, Options{MaxLevel: testMaxLevel})
		if err == nil {
			c.Close()
			t.Fatalf("%s: dial succeeded", tc.name)
		}
		want := fmt.Sprintf("server speaks wire protocol version %d, this client speaks version %d", tc.peer, wire.Proto)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got %q, want it to contain %q", tc.name, err, want)
		}
	}
	c, err := DialEncrypted(helloServer(t, current), key, Options{MaxLevel: testMaxLevel})
	if err != nil {
		t.Fatalf("current version refused: %v", err)
	}
	c.Close()
}
