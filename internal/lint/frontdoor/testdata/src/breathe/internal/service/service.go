// Package service is a fixture with a Config type of its own.
package service

// Config sizes a service.
type Config struct{ Workers int }
