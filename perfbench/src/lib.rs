//! Steady-state host-speed benchmark of SlackSim-RS.
//!
//! [`workload`] names the operating points and builds each engine from
//! public calls; [`trace`] wraps the models to time every trait call by
//! layer. `src/main.rs` is the command the repository's `BENCHMARK.json`
//! runs; NOTES.md explains the workloads and metrics.

pub mod trace;
pub mod workload;
