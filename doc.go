// Package ting is a from-scratch Go reproduction of "Ting: Measuring and
// Exploiting Latencies Between All Tor Nodes" (Cangialosi, Levin, Spring —
// IMC 2015).
//
// The repository contains three layers:
//
//   - mintor, a working onion-routing overlay (internal/cell, onion, link,
//     relay, directory, client, control, echo, tornet) with real layered
//     encryption and a Tor-control-port-style protocol;
//   - the Ting measurement technique itself (internal/ting), which measures
//     the RTT between any two relays from a single vantage point by
//     composing circuits (w,x,y,z), (w,x), (w,y) and applying Eq. (4);
//   - the paper's evaluation: a synthetic Internet with exactly known
//     ground truth (internal/geo, inet), the applications of Section 5
//     (internal/deanon, pathsel, coverage), and a harness regenerating
//     every figure (internal/experiments, cmd/experiments).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-versus-measured
// results. `go run ./cmd/experiments -fig all` regenerates every figure.
package ting
