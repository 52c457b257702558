package partition_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"accdb/internal/core"
	"accdb/internal/tpcc"
)

// benchWarmupTxns is the untimed load each sub-benchmark runs on its own
// fresh set before measuring, so no sub-benchmark pays for heap growth,
// first-touch allocation or scheduler ramp-up that an earlier one already
// paid: the sweep then measures the same thing in any order.
const benchWarmupTxns = 2000

// BenchmarkPartitionThroughput measures the TPC-C mix against a 4-partition
// set at varying remote-warehouse shares. remote=0 is the router's fast-path
// baseline — every transaction routes whole to its home engine; higher
// shares price the multi-shot coordinator (decision-record force plus one
// forced commit per remote shot). CI records this as BENCH_partition.json.
func BenchmarkPartitionThroughput(b *testing.B) {
	for _, remotePct := range []int{0, 10, 30} {
		b.Run(fmt.Sprintf("remote=%d", remotePct), func(b *testing.B) {
			scale := tpcc.Scale{
				Warehouses: 4, Districts: 2, CustomersPerDistrict: 60,
				Items: 50, InitialOrdersPerDistrict: 20, NewOrderBacklog: 8,
			}
			set, err := tpcc.NewSet(4, scale, 1, func(int) ([]core.Option, error) {
				return []core.Option{core.WithMode(core.ModeACC), core.WithWaitTimeout(10 * time.Second)}, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { set.Close() })
			wcfg := tpcc.DefaultWorkloadConfig(scale)
			wcfg.RemotePercent = remotePct
			w := tpcc.NewRemoteWorkload(set.Run, wcfg)

			procs := runtime.GOMAXPROCS(0)
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(g) + 1))
					for i := g; i < benchWarmupTxns; i += procs {
						w.Next(r, g).Run()
					}
				}(g)
			}
			wg.Wait()
			runtime.GC()
			before := set.Snapshot()

			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := rand.New(rand.NewSource(rand.Int63()))
				term := int(r.Int31n(1024))
				for pb.Next() {
					w.Next(r, term).Run()
				}
			})
			b.StopTimer()
			st := set.Snapshot()
			single := st.SingleRouted - before.SingleRouted
			cross := st.CrossStarted - before.CrossStarted
			if total := single + cross; total > 0 {
				b.ReportMetric(float64(cross)/float64(total)*100, "cross%")
			}
		})
	}
}
