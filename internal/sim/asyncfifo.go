package sim

// AsyncFIFO models the latency of a clock-domain crossing through a
// dual-clock gray-pointer FIFO (the paper's "param clock domain
// crossing", §3.3.1, design per Cummings' classic async-FIFO scheme). A
// two-flop synchronizer delays pointer visibility by DefaultSyncStages
// cycles of the destination clock, so an item written at time t is
// earliest readable at the read-clock edge following t +
// DefaultSyncStages read periods. This reproduces the small fixed
// crossing latency the paper reports for wrapped interfaces without
// modelling metastability itself.
type AsyncFIFO struct {
	rdClk *Clock
}

// DefaultSyncStages is the conventional two-flop synchronizer depth.
const DefaultSyncStages = 2

// NewAsyncFIFO returns a CDC crossing into rdClk.
func NewAsyncFIFO(rdClk *Clock) *AsyncFIFO {
	if rdClk == nil {
		panic("sim: AsyncFIFO requires a read clock")
	}
	return &AsyncFIFO{rdClk: rdClk}
}

// CrossingLatency reports the worst-case write-to-readable delay: the
// synchronizer stages in the read domain plus one read-clock edge
// alignment.
func (f *AsyncFIFO) CrossingLatency() Time {
	return Time(DefaultSyncStages+1) * f.rdClk.Period()
}
