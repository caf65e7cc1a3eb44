//! End-to-end tests of the persistent content-addressed unit store
//! (DESIGN.md §12): cold, warm, and no-store suite runs must produce
//! byte-identical JSONL; a warm run must execute zero simulation units;
//! and poisoned entries (truncation, fingerprint drift, garbage) must be
//! recomputed — never trusted — while the store self-heals. The store is
//! the one incremental-rerun mechanism: a rerun after an interrupted run
//! recomputes exactly the units the interrupted run never stored, and a
//! run at another scale reuses nothing. fig4, whose one unit samples `PAR`
//! as it runs, resolves through the store the same way, and its float
//! samples survive the round trip bit for bit.
//!
//! The store slot and the in-memory claim map are process-wide, so the
//! whole scenario lives in **one** `#[test]`, phased in order.
//! `reset_memory_cells()` between phases simulates fresh processes; each
//! phase's run goes all the way through `run_suite`, the same path the
//! CLIs use.

use std::fs;
use std::path::{Path, PathBuf};

use padc_harness::{run_suite, HarnessConfig, Summary};
use padc_sim::experiments::{self, ExpConfig, Scale};
use padc_sim::Report;
use padc_store::{digest_hex, Store};

const SUBSET: [&str; 2] = ["fig6", "tab5"];

/// Runs the smoke-scale subset through the suite, returning the JSONL
/// bytes and the summary.
fn run_subset() -> (String, Summary) {
    run_ids(&SUBSET)
}

/// Runs the smoke-scale experiments `ids` through the suite.
fn run_ids(ids: &[&str]) -> (String, Summary) {
    run_ids_at(ids, ExpConfig::at(Scale::Smoke))
}

/// Runs the experiments `ids` at `exp` through the suite.
fn run_ids_at(ids: &[&str], exp: ExpConfig) -> (String, Summary) {
    let selected: Vec<_> = ids
        .iter()
        .map(|id| experiments::find(id).expect("known id"))
        .collect();
    let jobs = experiments::suite_jobs(selected, exp, None);
    let cfg = HarnessConfig {
        workers: 2,
        budget: None,
        progress: false,
    };
    let mut jsonl = Vec::new();
    let mut progress = std::io::sink();
    let summary = run_suite(&jobs, &cfg, Some(&mut jsonl), &mut progress).expect("suite runs");
    assert_eq!(summary.failed(), 0, "{ids:?} must succeed");
    (String::from_utf8(jsonl).expect("JSONL is UTF-8"), summary)
}

/// All entry files under `<dir>/objects/<shard>/`, sorted for determinism.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for shard in fs::read_dir(dir.join("objects")).expect("objects dir") {
        let shard = shard.expect("shard entry").path();
        if shard.is_dir() {
            for f in fs::read_dir(&shard).expect("shard dir") {
                out.push(f.expect("entry file").path());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn store_runs_are_byte_identical_and_strictly_validated() {
    let dir = std::env::temp_dir().join(format!("padc-store-test-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // Phase 0 — baseline without any store: the reference bytes.
    let (baseline, _) = run_subset();
    assert!(!baseline.is_empty());

    // Phase 1 — cold store: every unit misses, is computed, and is written
    // back; the artifact must not change.
    experiments::install_unit_store(&dir).expect("store opens");
    let before = experiments::unit_cache_stats();
    let (cold, _) = run_subset();
    assert_eq!(cold, baseline, "cold-store run changed the artifact");
    let after_cold = experiments::unit_cache_stats();
    let cold_misses = after_cold.store_misses - before.store_misses;
    assert!(cold_misses > 0, "cold run must miss");
    assert_eq!(
        after_cold.store_hits - before.store_hits,
        0,
        "cold run cannot hit"
    );
    let entries = entry_files(&dir);
    assert_eq!(
        entries.len() as u64,
        cold_misses,
        "every miss writes exactly one entry"
    );

    // Phase 2 — warm store in a "fresh process": every unit resolves from
    // disk, zero simulation units execute, bytes identical.
    experiments::reset_memory_cells();
    let (warm, warm_summary) = run_subset();
    assert_eq!(warm, baseline, "warm-store run changed the artifact");
    let after_warm = experiments::unit_cache_stats();
    assert_eq!(
        after_warm.store_misses - after_cold.store_misses,
        0,
        "warm run must not miss"
    );
    assert_eq!(
        after_warm.store_hits - after_cold.store_hits,
        cold_misses,
        "warm run resolves every unit from disk"
    );
    assert_eq!(
        warm_summary.subjobs_executed, 0,
        "a fully warm run must execute zero simulation units"
    );

    // Phase 3 — poisoned store: a truncated entry, a garbage entry, and an
    // entry whose fingerprint drifted (same lengths, different meta bytes)
    // must all be treated as misses and recomputed; the artifact stays
    // byte-identical and the rewrite heals the store.
    let truncated = &entries[0];
    let bytes = fs::read(truncated).expect("entry readable");
    fs::write(truncated, &bytes[..bytes.len() / 2]).expect("truncate entry");
    let garbage = &entries[1];
    fs::write(garbage, b"not a store entry").expect("garbage entry");
    let drifted = &entries[2];
    let text = fs::read_to_string(drifted).expect("entry is UTF-8");
    assert!(text.contains("result-v1"), "meta carries the fingerprint");
    fs::write(drifted, text.replace("result-v1", "result-v9")).expect("drift fingerprint");

    experiments::reset_memory_cells();
    let (healed, _) = run_subset();
    assert_eq!(healed, baseline, "poisoned entries leaked into results");
    let after_heal = experiments::unit_cache_stats();
    assert_eq!(
        after_heal.store_misses - after_warm.store_misses,
        3,
        "exactly the three poisoned entries must recompute"
    );
    assert_eq!(
        after_heal.store_hits - after_warm.store_hits,
        cold_misses - 3,
        "intact entries still hit"
    );

    // Phase 4 — the recomputation healed the store: a further fresh run is
    // all hits again.
    experiments::reset_memory_cells();
    let (rewarm, rewarm_summary) = run_subset();
    assert_eq!(rewarm, baseline);
    let after_rewarm = experiments::unit_cache_stats();
    assert_eq!(after_rewarm.store_misses - after_heal.store_misses, 0);
    assert_eq!(rewarm_summary.subjobs_executed, 0);

    // Phase 5 — gc keeps the newest entries and the stats add up.
    let store = Store::open(&dir).expect("store reopens");
    let stats = store.stats().expect("stats");
    assert_eq!(stats.entries, cold_misses);
    let outcome = store.gc(stats.bytes / 2).expect("gc runs");
    assert!(outcome.evicted > 0);
    assert!(outcome.remaining_bytes <= stats.bytes / 2);
    assert_eq!(outcome.remaining_entries + outcome.evicted, stats.entries);

    // Phase 6 — uninstalling the store restores the legacy execution path
    // and the same bytes.
    experiments::uninstall_unit_store();
    experiments::reset_memory_cells();
    let (plain, _) = run_subset();
    assert_eq!(plain, baseline, "no-store run changed the artifact");

    interrupted_runs_resume_from_the_store(&dir.join("resume"), &baseline, cold_misses);
    fig4_resolves_as_one_stored_unit(&dir.join("fig4"));
    let _ = fs::remove_dir_all(&dir);
}

/// Per-run store counters: `(hits, misses)` since `before`.
fn hits_misses_since(before: experiments::UnitCacheStats) -> (u64, u64) {
    let now = experiments::unit_cache_stats();
    (
        now.store_hits - before.store_hits,
        now.store_misses - before.store_misses,
    )
}

/// A run interrupted after `tab5` left only tab5's units in the store.
/// Rerunning the whole subset hits exactly those units, computes only the
/// rest (`subset_units` distinct units in all), and writes the bytes of a
/// run without a store. A run at another scale shares no unit key with
/// the stored ones, so it hits nothing and its rows differ.
fn interrupted_runs_resume_from_the_store(dir: &Path, baseline: &str, subset_units: u64) {
    let _ = fs::remove_dir_all(dir);
    experiments::install_unit_store(dir).expect("store opens");
    experiments::reset_memory_cells();
    let before = experiments::unit_cache_stats();
    let (partial, _) = run_ids(&["tab5"]);
    let (hits, tab5_units) = hits_misses_since(before);
    assert_eq!(hits, 0, "an empty store cannot hit");
    assert!(tab5_units > 0 && tab5_units < subset_units);

    experiments::reset_memory_cells();
    let before = experiments::unit_cache_stats();
    let (rerun, _) = run_subset();
    assert_eq!(
        rerun, baseline,
        "rerun after an interruption changed the artifact"
    );
    assert_eq!(
        hits_misses_since(before),
        (tab5_units, subset_units - tab5_units),
        "the rerun must reuse every stored unit and compute only the rest"
    );

    let smoke = ExpConfig::at(Scale::Smoke);
    let smaller = ExpConfig {
        instructions: smoke.instructions / 2,
        instructions_single: smoke.instructions_single / 2,
        ..smoke
    };
    experiments::reset_memory_cells();
    let before = experiments::unit_cache_stats();
    let (rescaled, _) = run_ids_at(&["tab5"], smaller);
    assert_eq!(
        hits_misses_since(before),
        (0, tab5_units),
        "a run at another scale must not reuse stored units"
    );
    assert_ne!(rescaled, partial, "the scale must reach the rows");

    experiments::uninstall_unit_store();
    experiments::reset_memory_cells();
}

/// Bit patterns of a sample vector (float `==` would equate `0.0` and
/// `-0.0`).
fn bits(samples: &[f64]) -> Vec<u64> {
    samples.iter().map(|x| x.to_bits()).collect()
}

/// fig4 is one sampled unit: a cold run misses once, a warm run hits once
/// and executes nothing, a truncated entry is recomputed, and the stored
/// `par_samples` parse back to the exact floats the run recorded.
fn fig4_resolves_as_one_stored_unit(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
    experiments::install_unit_store(dir).expect("store opens");
    experiments::reset_memory_cells();
    let before = experiments::unit_cache_stats();
    let (cold, _) = run_ids(&["fig4"]);
    let after_cold = experiments::unit_cache_stats();
    assert_eq!(after_cold.store_misses - before.store_misses, 1);
    assert_eq!(after_cold.store_hits - before.store_hits, 0);
    let entries = entry_files(dir);
    assert_eq!(entries.len(), 1, "fig4 stores exactly one entry");

    experiments::reset_memory_cells();
    let (warm, warm_summary) = run_ids(&["fig4"]);
    assert_eq!(warm, cold, "warm fig4 changed the artifact");
    let after_warm = experiments::unit_cache_stats();
    assert_eq!(after_warm.store_hits - after_cold.store_hits, 1);
    assert_eq!(after_warm.store_misses - after_cold.store_misses, 0);
    assert_eq!(warm_summary.subjobs_executed, 0);

    // The stored payload parses back to the run's exact samples.
    let unit = (experiments::find("fig4").expect("fig4").kind.plan)(&ExpConfig::at(Scale::Smoke))
        .remove(0);
    let meta = unit.store_meta();
    assert!(meta.ends_with(",\"sample_period\":500000}"), "{meta}");
    let payload = Store::open(dir)
        .expect("store reopens")
        .load(&digest_hex(meta.as_bytes()), &meta)
        .expect("fig4 entry validates");
    let stored: Report = serde_json::from_str(&payload).expect("payload parses");
    let fresh = unit.execute();
    assert!(fresh.par_samples.len() > 1, "fig4 recorded no samples");
    assert_eq!(bits(&stored.par_samples), bits(&fresh.par_samples));
    assert_eq!(stored, fresh);
    // Integral floats print without a fraction (`1.0` as `1`) and still
    // parse back as the same `f64`.
    let mut edge = fresh.clone();
    edge.par_samples = vec![1.0, 0.0, 0.5, 1e-7];
    let json = serde_json::to_string(&edge).expect("serialize");
    assert!(json.contains("\"par_samples\":[1,0,0.5,"), "{json}");
    let back: Report = serde_json::from_str(&json).expect("parse");
    assert_eq!(bits(&back.par_samples), bits(&edge.par_samples));

    // A truncated entry is a miss: recomputed, rewritten, never served.
    let bytes = fs::read(&entries[0]).expect("entry readable");
    fs::write(&entries[0], &bytes[..bytes.len() / 2]).expect("truncate entry");
    experiments::reset_memory_cells();
    let (healed, _) = run_ids(&["fig4"]);
    assert_eq!(healed, cold, "truncated fig4 entry leaked into results");
    let after_heal = experiments::unit_cache_stats();
    assert_eq!(after_heal.store_misses - after_warm.store_misses, 1);
    assert_eq!(after_heal.store_hits - after_warm.store_hits, 0);
    assert_eq!(fs::read(&entries[0]).expect("entry rewritten"), bytes);

    experiments::uninstall_unit_store();
    experiments::reset_memory_cells();
}
