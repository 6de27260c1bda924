package vm

// Open-coded segment fast paths for the interpreter cores.
//
// runCore is far beyond the Go inliner's big-function threshold, where
// only callees costing <= 20 units still inline; the mem.Segment
// accessor methods (ReadU64At ~48) therefore compiled to a
// real CALL on every memory access — measurably the dominant dispatch
// cost on load/store-heavy workloads. These helpers split the accessor
// into a bounds probe (has*) and an unchecked access (get*/put*, in
// seghot_unsafe.go / seghot_generic.go), each small enough to inline
// anywhere. The cores take each segment's (data, base, dataEnd) view
// per access via Segment.View (also tiny) and probe with has* before
// touching the bytes. Segments are backed on demand, but a segment's
// backing and touched window grow only in Memory.FindSegment's segment
// walk, which a core's miss reaches through the driver's slow paths
// between core calls — never while a core is running — so a view stays
// valid for the whole core call. Semantics match Segment.contains
// exactly, including the address-overflow guard and the empty-window case
// (an unbacked or untouched segment has dataEnd == base and fails every
// probe); writers check Segment.Writable at the call site, mirroring the
// Write*At methods.

func has8(base, end, addr uint64) bool {
	return addr >= base && addr+8 <= end && addr+8 >= addr
}

func has4(base, end, addr uint64) bool {
	return addr >= base && addr+4 <= end && addr+4 >= addr
}

func has1(base, end, addr uint64) bool {
	return addr >= base && addr+1 <= end && addr+1 >= addr
}

func get1(data []byte, base, addr uint64) byte {
	return data[addr-base]
}

func put1(data []byte, base, addr uint64, val byte) {
	data[addr-base] = val
}
