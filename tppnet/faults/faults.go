// Package faults is the public face of the deterministic fault-injection
// plane: the spec types for building a tppnet.FaultPlan — link flaps,
// Bernoulli and Gilbert-Elliott packet loss, TPP-section corruption,
// serialization jitter, switch halts and fixed-time scripted events — plus
// the telemetry bridge that makes chaos runs observable through the
// standard pipeline.
//
// A plan is armed with tppnet.WithFaults:
//
//	plan := &tppnet.FaultPlan{
//	    Seed:    7,
//	    Horizon: 200 * tppnet.Millisecond,
//	    Flap:    &faults.FlapSpec{MTTF: 40 * tppnet.Millisecond, MTTR: 10 * tppnet.Millisecond},
//	    Loss:    &faults.LossSpec{Rate: 0.01},
//	}
//	net := tppnet.NewNetwork(tppnet.WithSeed(1), tppnet.WithFaults(plan))
//
// Everything is deterministic: the plan carries its own seed, each fault
// target draws from a private stream derived from it, and identical
// (topology, workload, plan) tuples replay byte-identically across runs
// and shard counts. See internal/faults for the determinism contract and
// testbed.RunChaos for the ready-made chaos scenario that enforces it.
package faults

import (
	"minions/internal/faults"
)

// Spec and event types of the fault plane. The plan itself is
// tppnet.FaultPlan; these are its members.
type (
	// FlapSpec: random link down/up cycles with exponential MTTF/MTTR.
	FlapSpec = faults.FlapSpec
	// LossSpec: per-packet transmit loss, Bernoulli or Gilbert-Elliott.
	LossSpec = faults.LossSpec
	// CorruptSpec: random single-bit flips in TPP packet memory.
	CorruptSpec = faults.CorruptSpec
	// JitterSpec: probabilistic added serialization delay.
	JitterSpec = faults.JitterSpec
	// HaltSpec: random switch halt/restart cycles.
	HaltSpec = faults.HaltSpec
	// Event is one fault-plane occurrence, also the Script entry type.
	Event = faults.Event
	// EventKind classifies fault events.
	EventKind = faults.EventKind
	// Counts aggregates fault activity over a run.
	Counts = faults.Counts
)

// Event kinds.
const (
	LinkDown      = faults.LinkDown
	LinkUp        = faults.LinkUp
	BurstStart    = faults.BurstStart
	BurstEnd      = faults.BurstEnd
	SwitchHalt    = faults.SwitchHalt
	SwitchRestart = faults.SwitchRestart
)
