// Package staleallow plants //ampvet:allow directives in both forms.
// The "used:" ones each cover a ctxcheck finding; the "stale:" ones
// cover nothing, and a full-suite run reports each as a finding of
// check "ampvet".
package staleallow

import "context"

func LineUsed() context.Context {
	return context.Background() //ampvet:allow ctxcheck used: covers a real finding
}

func LineStale() int {
	//ampvet:allow ctxcheck stale: nothing on the line below to suppress
	return 1
}

// DocUsed covers its whole body.
//
//ampvet:allow ctxcheck used: covers a real finding in the body
func DocUsed() context.Context {
	return context.TODO()
}

// DocStale covers a body with no finding.
//
//ampvet:allow ctxcheck stale: nothing in the body to suppress
func DocStale() int {
	return 2
}
