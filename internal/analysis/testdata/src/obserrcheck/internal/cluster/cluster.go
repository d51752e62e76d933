// Package cluster mirrors the fleet-layer surface of the real cluster
// package for the obserrcheck fixture.
package cluster

import "context"

// Config is a minimal stand-in.
type Config struct{}

// Node mirrors the fleet node's must-check API.
type Node struct{}

// New mirrors node construction's (node, error) shape.
func New(cfg Config) (*Node, error) { return &Node{}, nil }

// Start mirrors the heartbeat launch error.
func (n *Node) Start(ctx context.Context) error { return nil }

// Close mirrors the shutdown error (leaked loops on drop).
func (n *Node) Close() error { return nil }
