package amp

import "context"

// RunReference exposes the window-by-window reference loop to the
// external tests.
func (s *System) RunReference(ctx context.Context, limit uint64) (Result, error) {
	return s.runReference(ctx, limit)
}
