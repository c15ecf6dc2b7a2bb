//! # rcy-bench — the reproduction harness
//!
//! One runnable experiment per table/figure of the paper's evaluation
//! (§7 TPC-H, §8 SkyServer). The [`driver`] runs query batches against a
//! naive engine and recycler-equipped engines and collects per-query
//! series; [`experiments`] turns those series into the same rows the paper
//! reports; `src/bin/repro.rs` is the command-line entry point.
//!
//! ```text
//! cargo run -p rcy-bench --release --bin repro -- all
//! cargo run -p rcy-bench --release --bin repro -- table2 fig4 fig15
//! ```

pub mod affinity;
pub mod c10k;
pub mod concurrent;
pub mod driver;
pub mod experiments;
pub mod pressure;
pub mod tables;
pub mod tiered;

pub use c10k::{server_c10k, C10kOutcome};
pub use concurrent::{
    partition_streams, pool_scaling, run_concurrent, run_concurrent_shared, server_mixed,
    update_mixed, ConcurrentOutcome, ScalePoint, ServerMixedOutcome, SessionOutcome,
    UpdateMixedOutcome,
};
pub use driver::{run_batch, BatchOutcome, BenchItem, QueryRun};
pub use pressure::{eviction_pressure, EvictionPressureOutcome, PressurePoint};
pub use tables::TextTable;
pub use tiered::{tiered_lowmem, TieredLowmemOutcome, TieredRun};
