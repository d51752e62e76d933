// Package server mirrors the service-layer surface of the real server
// package for the obserrcheck fixture.
package server

import "context"

// JobSpec is a minimal stand-in.
type JobSpec struct{}

// Server mirrors the service's must-check API.
type Server struct{}

// Submit mirrors the group submission's (entries, error) shape.
func (s *Server) Submit(specs ...JobSpec) ([]JobSpec, error) { return specs, nil }

// Drain mirrors the graceful-shutdown error result.
func (s *Server) Drain(ctx context.Context) error { return nil }

// RecoveryStats is a minimal stand-in.
type RecoveryStats struct{}

// Recover mirrors journal replay's (stats, error) shape.
func (s *Server) Recover() (RecoveryStats, error) { return RecoveryStats{}, nil }
