package jobqueue

import (
	"context"
	"testing"
)

// BenchmarkQueueSubmitComplete measures the full submit→run→settle
// round trip for a no-op task — the queue's fixed overhead per job.
func BenchmarkQueueSubmitComplete(b *testing.B) {
	q, err := New(Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	group := []BatchTask{{Task: func(ctx context.Context) error { return nil }}}
	jobs := make([]*Job, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Submit(group, jobs); err != nil {
			b.Fatal(err)
		}
		if err := jobs[0].Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
