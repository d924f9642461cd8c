//! # pb-chain-bench
//!
//! The repository's end-to-end benchmark: it starts the real chain
//! (client → proxy → volume center → origin) in-process through the
//! daemons' public handles, drives it from a seeded load generator, checks
//! every response, and reports end-to-end figures (`--trace 0`) or
//! per-layer attribution taken from outside the daemons (`--trace 1`).
//! `README.md` beside this package defines every metric and workload.

pub mod alloc;
pub mod chain;
pub mod cli;
pub mod layers;
pub mod loadgen;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod run;
pub mod selfcheck;
pub mod stats;
pub mod sys;
pub mod tap;
pub mod trace;
pub mod wire;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
