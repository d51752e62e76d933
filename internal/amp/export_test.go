package amp

// CtxCheckMask exposes the context poll period to the external tests.
const CtxCheckMask = ctxCheckMask
