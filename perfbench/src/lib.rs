//! The repository benchmark's logic, kept apart from its process
//! plumbing (`main.rs`) so it can be unit-tested.
//!
//! * [`workload`] — the four workloads and their seeded shape streams.
//! * [`tally`] — per-call samples, failure counting and the end-to-end
//!   statistics (throughput, copy roofline, median and tail latency).
//! * [`stats`] — median, nearest-rank percentiles and the tail rule.
//! * [`layers`] — the only reader of `ipt_pool::stats`: per-call
//!   counter and phase-timer deltas.
//! * [`trace`] — in-memory spans, self times and Chrome trace export.
//! * [`env`] — the environment stamp and the refusal rule.
//! * [`metrics`] — metric names, units and the result line.
//! * [`sys`] — peak resident memory of this process and of children.

pub mod env;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod sys;
pub mod tally;
pub mod trace;
pub mod workload;
