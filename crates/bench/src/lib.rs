//! # bench — regenerate every table and figure
//!
//! One function per experiment from DESIGN.md's per-experiment index
//! (T1–T5, F1–F30). Each returns a [`Report`]: its JSON record, the only
//! place a measured value is stated, plus static notes. `bench tables`
//! keeps the records in `results.json` and prints the text derived from
//! each ([`Report::text`]: markdown tables drawn from the record by
//! [`artifact::markdown`]). The four sweeps ([`throughput`], [`latency`],
//! [`recovery`], [`geo`]) each implement [`artifact::Artifact`], and the
//! one pipeline in [`artifact`] regenerates or drift-checks their
//! `BENCH_*.json` files. `bench figures` renders the generated
//! documentation under `docs/` (Mermaid message-flow diagrams, taxonomy info
//! cards, measured statistics) from the same deterministic simulations.
//! Host cost (wall-clock) is measured by the separate `benchmark/` package.
//!
//! ```sh
//! cargo run --release -p bench -- tables
//! cargo run --release -p bench -- tables --exp f11
//! cargo run --release -p bench -- throughput --check
//! cargo run --release -p bench -- figures
//! ```

pub mod artifact;
pub mod experiments;
pub mod figures;
pub mod geo;
pub mod latency;
pub mod recovery;
pub mod render;
pub mod throughput;

pub use experiments::{all_experiments, Report};
