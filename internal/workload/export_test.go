package workload

import (
	"fmt"

	"repro/internal/trace"
)

// SetQuota sets the per-thread operation quota of a registered workload, so
// external tests can drive a thread past it without running 2^20 ops.
func SetQuota(w trace.Workload, quota int) {
	var th *threads
	switch w := w.(type) {
	case *DSLoad:
		th = w.th
	case *KMeans:
		th = w.th
	case *SSCA2:
		th = w.th
	case *Labyrinth:
		th = w.th
	case *Vacation:
		th = w.th
	case *Intruder:
		th = w.th
	case *Genome:
		th = w.th
	case *Bayes:
		th = w.th
	case *Yada:
		th = w.th
	case *OLTP:
		th = w.th
	case *Social:
		th = w.th
	default:
		panic(fmt.Sprintf("SetQuota: no thread quota known for %T", w))
	}
	th.quota = quota
}
