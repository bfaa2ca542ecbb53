// Package runtimeobs publishes Go runtime health into an obs.Registry on a
// fixed cadence, so the existing /metrics exposition (JSON and Prometheus)
// picks up heap pressure, GC pauses, goroutine counts, and process uptime
// with zero new wire code. The sampler costs one runtime.ReadMemStats per
// interval (a stop-the-world on the order of tens of microseconds), which at
// the default 10s cadence is far below the serving layer's noise floor.
//
// Metric names (registry form → Prometheus form):
//
//	runtime.goroutines            runtime_goroutines
//	runtime.gomaxprocs            runtime_gomaxprocs
//	runtime.heap.alloc.bytes      runtime_heap_alloc_bytes
//	runtime.heap.sys.bytes        runtime_heap_sys_bytes
//	runtime.heap.inuse.bytes      runtime_heap_inuse_bytes
//	runtime.heap.objects          runtime_heap_objects
//	runtime.stack.inuse.bytes     runtime_stack_inuse_bytes
//	runtime.next_gc.bytes         runtime_next_gc_bytes
//	runtime.gc.count              runtime_gc_count_total (counter)
//	runtime.gc.pause.seconds      runtime_gc_pause_seconds (histogram)
//	runtime.gc.cpu.fraction       runtime_gc_cpu_fraction
//	process.uptime.seconds        process_uptime_seconds
//	process.start_time.seconds    process_start_time_seconds
package runtimeobs

import (
	"runtime"
	"sync"
	"time"

	"cardnet/internal/obs"
)

// processStart approximates process start time (package init happens within
// milliseconds of exec for this binary). process_start_time_seconds and
// uptime both derive from it.
var processStart = time.Now()

// StartTime returns the instant this process started (as observed at package
// init), the same value behind process_start_time_seconds.
func StartTime() time.Time { return processStart }

// Config tunes a Sampler. Zero values take the documented defaults.
type Config struct {
	// Interval is the sampling period (default 10s).
	Interval time.Duration
	// Registry receives the metrics (default obs.Default).
	Registry *obs.Registry
}

// Sampler periodically snapshots runtime.MemStats and goroutine counts into
// its registry. Start it with Start, stop it with Stop; it is started and
// stopped with the serve engine.
type Sampler struct {
	reg      *obs.Registry
	interval time.Duration

	mu        sync.Mutex
	lastNumGC uint32

	gGoroutines *obs.Gauge
	gMaxProcs   *obs.Gauge
	gHeapAlloc  *obs.Gauge
	gHeapSys    *obs.Gauge
	gHeapInuse  *obs.Gauge
	gHeapObj    *obs.Gauge
	gStackInuse *obs.Gauge
	gNextGC     *obs.Gauge
	gGCFrac     *obs.Gauge
	gUptime     *obs.Gauge
	cGCCount    *obs.Counter
	hGCPause    *obs.Histogram
	cSamples    *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// Start builds a sampler, takes one sample immediately (so /metrics is
// populated before the first tick), and begins the periodic loop.
func Start(cfg Config) *Sampler {
	s := New(cfg)
	s.Sample()
	go s.loop()
	return s
}

// New builds a sampler without starting its loop — tests and benchmarks call
// Sample directly for deterministic cadence.
func New(cfg Config) *Sampler {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	reg := cfg.Registry
	s := &Sampler{
		reg:         reg,
		interval:    cfg.Interval,
		gGoroutines: reg.Gauge("runtime.goroutines"),
		gMaxProcs:   reg.Gauge("runtime.gomaxprocs"),
		gHeapAlloc:  reg.Gauge("runtime.heap.alloc.bytes"),
		gHeapSys:    reg.Gauge("runtime.heap.sys.bytes"),
		gHeapInuse:  reg.Gauge("runtime.heap.inuse.bytes"),
		gHeapObj:    reg.Gauge("runtime.heap.objects"),
		gStackInuse: reg.Gauge("runtime.stack.inuse.bytes"),
		gNextGC:     reg.Gauge("runtime.next_gc.bytes"),
		gGCFrac:     reg.Gauge("runtime.gc.cpu.fraction"),
		gUptime:     reg.Gauge("process.uptime.seconds"),
		cGCCount:    reg.Counter("runtime.gc.count"),
		hGCPause:    reg.Histogram("runtime.gc.pause.seconds", obs.ExpBuckets(1e-6, 4, 12)),
		cSamples:    reg.Counter("runtime.samples"),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	reg.Gauge("process.start_time.seconds").Set(float64(processStart.UnixNano()) / 1e9)
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Sample()
		case <-s.stop:
			return
		}
	}
}

// Stop halts the periodic loop and waits for it to exit. Safe to call once;
// a sampler built with New (never started) must not be stopped.
func (s *Sampler) Stop() {
	close(s.stop)
	<-s.done
}

// Sample takes one snapshot now. GC pauses are read from the MemStats
// circular pause buffer: every GC cycle completed since the previous sample
// contributes one observation (capped at the buffer's 256 entries).
func (s *Sampler) Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	s.gGoroutines.Set(float64(runtime.NumGoroutine()))
	s.gMaxProcs.Set(float64(runtime.GOMAXPROCS(0)))
	s.gHeapAlloc.Set(float64(ms.HeapAlloc))
	s.gHeapSys.Set(float64(ms.HeapSys))
	s.gHeapInuse.Set(float64(ms.HeapInuse))
	s.gHeapObj.Set(float64(ms.HeapObjects))
	s.gStackInuse.Set(float64(ms.StackInuse))
	s.gNextGC.Set(float64(ms.NextGC))
	s.gGCFrac.Set(ms.GCCPUFraction)
	s.gUptime.Set(time.Since(processStart).Seconds())
	s.cSamples.Inc()

	s.mu.Lock()
	defer s.mu.Unlock()
	newGCs := ms.NumGC - s.lastNumGC
	if newGCs > uint32(len(ms.PauseNs)) {
		newGCs = uint32(len(ms.PauseNs))
	}
	for i := uint32(0); i < newGCs; i++ {
		// PauseNs is circular, indexed by (cycle-1) mod len.
		pause := ms.PauseNs[(ms.NumGC-i-1+uint32(len(ms.PauseNs)))%uint32(len(ms.PauseNs))]
		s.hGCPause.Observe(float64(pause) / 1e9)
	}
	if newGCs > 0 {
		s.cGCCount.Add(uint64(newGCs))
	}
	s.lastNumGC = ms.NumGC
}
