//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§V). See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.

#![forbid(unsafe_code)]

pub mod harness;

pub use harness::{names, run, select, Cell, Ran, RunConfig, Target, TARGETS};
