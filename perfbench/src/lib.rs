//! Host wall-clock benchmark of the PADC simulator, end to end and per
//! crate, on three reference workloads. See `perfbench/README.md`.

pub mod child;
mod host;
pub mod metrics;
mod replay;
pub mod run;
pub mod workload;
