// Package jobqueue mirrors the submission/drain surface of the real
// jobqueue package for the obserrcheck fixture.
package jobqueue

import "context"

// Task mirrors the real task shape.
type Task func(ctx context.Context) error

// BatchTask is a minimal stand-in.
type BatchTask struct{ Task Task }

// Job is a minimal stand-in.
type Job struct{}

// Queue mirrors the real queue's must-check API.
type Queue struct{}

// Submit mirrors the group submission's error-only shape.
func (q *Queue) Submit(tasks []BatchTask, jobs []*Job) error { return nil }

// Drain mirrors the graceful-stop error result.
func (q *Queue) Drain(ctx context.Context) error { return nil }
