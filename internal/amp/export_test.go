package amp

import "context"

// CtxCheckMask exposes the context poll period to the external tests.
const CtxCheckMask = ctxCheckMask

// RunReference exposes the window-by-window reference loop to the
// external tests.
func (s *System) RunReference(ctx context.Context, limit uint64) (Result, error) {
	return s.runReference(ctx, limit)
}
