package core

import "time"

// Real-time model (§4.1). The board processes the bus stream at bus
// speed: a trace of N references arriving at a given bus utilization is
// fully emulated in exactly the wall-clock time the host takes to produce
// it. Table 3's "Execution time of MemorIES" column is derived this way
// ("the MemorIES board assumes a 6xx bus speed of 100 MHz with a bus
// utilization of 20%"), and this file reproduces that derivation.

// RealTimeModel captures the two parameters of the derivation.
type RealTimeModel struct {
	// BusClockMHz is the 6xx bus clock (100 in the paper).
	BusClockMHz float64
	// Utilization is the fraction of bus cycles carrying memory
	// operations (0.20 in Table 3).
	Utilization float64
	// CyclesPerOp is the bus occupancy of one trace vector. Table 3's
	// own numbers imply 2 cycles per 8-byte vector (10 million vectors
	// in exactly 1 second at 20% of 100 MHz): the trace stream carries
	// address tenures, not full cache-line data transfers.
	CyclesPerOp float64
}

// PaperRealTimeModel returns the Table 3 parameters; with them, the model
// reproduces the paper's MemorIES column exactly (32768 vectors -> 3.28ms,
// 10 billion -> 16.67 minutes).
func PaperRealTimeModel() RealTimeModel {
	return RealTimeModel{BusClockMHz: 100, Utilization: 0.20, CyclesPerOp: 2}
}

// OpsPerSecond returns the bus-reference arrival rate the model implies.
func (m RealTimeModel) OpsPerSecond() float64 {
	return m.BusClockMHz * 1e6 * m.Utilization / m.CyclesPerOp
}

// Duration returns how long the board takes to emulate n bus references:
// exactly as long as the host takes to issue them.
func (m RealTimeModel) Duration(n uint64) time.Duration {
	sec := float64(n) / m.OpsPerSecond()
	return time.Duration(sec * float64(time.Second))
}
