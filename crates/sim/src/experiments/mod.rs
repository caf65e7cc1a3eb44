//! Every table and figure in the paper's evaluation (§6), reached through
//! one entry point: the [`registry`].
//!
//! Every experiment takes an [`ExpConfig`] controlling scale (instructions
//! per core, number of multiprogrammed workloads) and returns one or more
//! [`ExpTable`]s — the same rows/series the paper reports, printable as
//! aligned text. Both CLIs (`repro` in `padc-bench`, `padcsim --suite`)
//! look experiments up by id (`fig6`, `case2`, `tab7`, ...) with
//! [`find`] and run them as suite jobs.
//!
//! Experiments execute through the two-phase plan/execute/reduce contract
//! ([`ExpKind`]): `plan` enumerates independent, deterministically-keyed
//! [`SimUnit`]s, the harness executes them (fanning out onto the shared
//! worker pool in [`ExecMode::Planned`]), and `reduce` folds the unit
//! results into tables after a per-experiment barrier — so result bytes
//! never depend on scheduling. Experiments that simulate nothing (fig2,
//! cost, tab6) plan no units and build their table in `reduce`.
//!
//! Absolute numbers will not match the paper (its substrate was a
//! proprietary x86 simulator running SPEC traces; ours is a synthetic-trace
//! reproduction — see DESIGN.md), but the *shapes* — which policy wins
//! where, and by roughly what factor — are the reproduction target.

mod infra;
mod mechanisms;
mod micro;
mod multi;
pub mod registry;
mod single;
mod sweeps;
mod unit_cache;

pub use infra::{
    execute_units, plan_alone_units, single_run_stats, ExecMode, ExpConfig, ExpKind, ExpTable,
    PolicyArm, Scale, SimUnit, UnitKey, UnitResult, UnitResults,
};
pub use mechanisms::{tab1_2_cost, tab6_thresholds};
pub use micro::fig2_scheduling_example;
pub use multi::CaseStudy;
pub use registry::{
    find, registry as experiment_registry, suite_jobs, suite_jobs_profiled, suite_jobs_with,
    table_stash, Experiment, SuiteOptions, TableStash,
};
pub use unit_cache::{
    fingerprint as store_fingerprint, install_unit_store, set_unit_coalescing, unit_cache_stats,
    unit_store_installed, UnitCacheStats, RESULT_SCHEMA_VERSION,
};
#[doc(hidden)]
pub use unit_cache::{reset_memory_cells, uninstall_unit_store};
