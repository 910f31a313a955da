package pkt

import (
	"testing"
	"unsafe"
)

func TestPathString(t *testing.T) {
	if PathFast.String() != "fast" || PathSlow.String() != "slow" {
		t.Fatalf("path strings: %s %s", PathFast, PathSlow)
	}
}

func TestZeroValuePacket(t *testing.T) {
	var p Packet
	if p.Path != PathFast {
		t.Fatal("zero packet should default to the fast path")
	}
	if p.Landed || p.Marked || p.MsgEnd || p.HostBuf != nil {
		t.Fatal("zero packet flags should be clear")
	}
}

// TestPacketDescriptorSize pins the descriptor at 80 bytes: the LLC
// handle rides in the padding after Path, and a field that grows the
// descriptor moves it to a larger allocation size class.
func TestPacketDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 80 {
		t.Fatalf("pkt.Packet is %d bytes, want 80", got)
	}
}
