package harmonia

// Benchmarks regenerating every paper table and figure (go test
// -bench=.). Each BenchmarkFigXX/BenchmarkTableX target runs the
// corresponding experiment from internal/bench; the first iteration's
// output is what cmd/harmonia-bench prints and EXPERIMENTS.md records.
// Ablation benchmarks at the bottom quantify the design choices
// DESIGN.md calls out.

import (
	"testing"

	"harmonia/internal/bench"
	"harmonia/internal/ip"
	"harmonia/internal/pcie"
	"harmonia/internal/platform"
	"harmonia/internal/rbb"
	"harmonia/internal/sim"
	"harmonia/internal/wrapper"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if out.String() == "" {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkFig03aDevWorkload(b *testing.B)      { runExperiment(b, "fig3a") }
func BenchmarkFig03bVendorDiffs(b *testing.B)      { runExperiment(b, "fig3b") }
func BenchmarkFig03cFleetGrowth(b *testing.B)      { runExperiment(b, "fig3c") }
func BenchmarkFig03dInitSequences(b *testing.B)    { runExperiment(b, "fig3d") }
func BenchmarkFig10aMACWrapper(b *testing.B)       { runExperiment(b, "fig10a") }
func BenchmarkFig10bPCIeWrapper(b *testing.B)      { runExperiment(b, "fig10b") }
func BenchmarkFig10cDDRWrapper(b *testing.B)       { runExperiment(b, "fig10c") }
func BenchmarkFig11ShellTailoring(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12RoleConfigs(b *testing.B)       { runExperiment(b, "fig12") }
func BenchmarkFig13SoftwareMods(b *testing.B)      { runExperiment(b, "fig13") }
func BenchmarkFig14RBBReuse(b *testing.B)          { runExperiment(b, "fig14") }
func BenchmarkFig15AppReuse(b *testing.B)          { runExperiment(b, "fig15") }
func BenchmarkFig16Overheads(b *testing.B)         { runExperiment(b, "fig16") }
func BenchmarkFig17aSecGateway(b *testing.B)       { runExperiment(b, "fig17a") }
func BenchmarkFig17bLayer4LB(b *testing.B)         { runExperiment(b, "fig17b") }
func BenchmarkFig17cHostNetwork(b *testing.B)      { runExperiment(b, "fig17c") }
func BenchmarkFig17dRetrieval(b *testing.B)        { runExperiment(b, "fig17d") }
func BenchmarkFig18aFrameworkShells(b *testing.B)  { runExperiment(b, "fig18a") }
func BenchmarkFig18bMatMul(b *testing.B)           { runExperiment(b, "fig18b") }
func BenchmarkFig18cDatabaseAccess(b *testing.B)   { runExperiment(b, "fig18c") }
func BenchmarkFig18dTCPTransmission(b *testing.B)  { runExperiment(b, "fig18d") }
func BenchmarkFleetScaleOut(b *testing.B)          { runExperiment(b, "fleet1") }
func BenchmarkFleetRecovery(b *testing.B)          { runExperiment(b, "fleet2") }
func BenchmarkTable1Capabilities(b *testing.B)     { runExperiment(b, "table1") }
func BenchmarkTable2Setup(b *testing.B)            { runExperiment(b, "table2") }
func BenchmarkTable3DeviceSupport(b *testing.B)    { runExperiment(b, "table3") }
func BenchmarkTable4ConfigInterfaces(b *testing.B) { runExperiment(b, "table4") }

// Ablation: hot cache on vs off for repeated 64B reads.
func BenchmarkAblationHotCache(b *testing.B) {
	for _, on := range []struct {
		name string
		en   bool
	}{{"on", true}, {"off", false}} {
		b.Run(on.name, func(b *testing.B) {
			m, err := rbb.NewMemory(platform.Xilinx, ip.DDR4Mem, sim.NewClock("u", 250), 512)
			if err != nil {
				b.Fatal(err)
			}
			m.Cache.SetEnabled(on.en)
			var now sim.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, now = m.Read(now, int64(i%64)*64, 64)
			}
			b.ReportMetric(now.Nanoseconds()/float64(b.N), "sim-ns/op")
		})
	}
}

// Ablation: address interleaving on vs off for a sequential stream.
func BenchmarkAblationInterleaving(b *testing.B) {
	for _, on := range []struct {
		name string
		en   bool
	}{{"on", true}, {"off", false}} {
		b.Run(on.name, func(b *testing.B) {
			m, err := rbb.NewMemory(platform.Xilinx, ip.DDR4Mem, sim.NewClock("u", 250), 512)
			if err != nil {
				b.Fatal(err)
			}
			m.SetInterleaving(on.en)
			var last sim.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := m.Device().Access(0, int64(i)*256, 256, false); d > last {
					last = d
				}
			}
			b.ReportMetric(last.Nanoseconds()/float64(b.N), "sim-ns/op")
		})
	}
}

// Ablation: active-list vs full-scan DMA queue scheduling.
func BenchmarkAblationQueueScheduling(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    pcie.SchedulerMode
	}{{"active-list", pcie.ActiveList}, {"full-scan", pcie.FullScan}} {
		b.Run(mode.name, func(b *testing.B) {
			link, err := pcie.NewLink("l", 4, 16)
			if err != nil {
				b.Fatal(err)
			}
			cfg := pcie.DefaultEngineConfig()
			cfg.Mode = mode.m
			engine, err := pcie.NewEngine(link, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := engine.Post(0, 777, pcie.DeviceToHost, 64); err != nil {
					b.Fatal(err)
				}
				engine.Step(0)
			}
			b.ReportMetric(float64(engine.SchedulingTime())/float64(b.N), "sched-ps/op")
		})
	}
}

// Ablation: control-queue isolation on vs off under data backlog.
func BenchmarkAblationControlQueue(b *testing.B) {
	for _, iso := range []struct {
		name string
		en   bool
	}{{"isolated", true}, {"shared", false}} {
		b.Run(iso.name, func(b *testing.B) {
			link, err := pcie.NewLink("l", 4, 16)
			if err != nil {
				b.Fatal(err)
			}
			cfg := pcie.DefaultEngineConfig()
			cfg.ControlQueue = iso.en
			engine, err := pcie.NewEngine(link, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var worst sim.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 8; j++ {
					engine.Post(0, 3, pcie.DeviceToHost, 4096)
				}
				engine.PostControl(0, 64)
				done, _ := engine.Step(0)
				if done > worst {
					worst = done
				}
				engine.Drain(0)
			}
			b.ReportMetric(float64(worst), "first-dispatch-ps")
		})
	}
}

// Ablation: pipelined width conversion vs store-and-forward wrapper.
func BenchmarkAblationPipelinedWrapper(b *testing.B) {
	clk := sim.NewClock("c", 322)
	b.Run("pipelined", func(b *testing.B) {
		d, err := wrapper.NewDataPath("dp", clk, 512, clk, 512)
		if err != nil {
			b.Fatal(err)
		}
		var done sim.Time
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done = d.Transfer(0, 1024)
		}
		b.ReportMetric(done.Nanoseconds()/float64(b.N), "sim-ns/op")
	})
	b.Run("store-and-forward", func(b *testing.B) {
		saf := sim.NewStoreAndForward("saf", clk, wrapper.PipelineDepth+16)
		var done sim.Time
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done = saf.Issue(0)
		}
		b.ReportMetric(done.Nanoseconds()/float64(b.N), "sim-ns/op")
	})
}
