//! Layer replays: the benchmark drives each crate's public hot-path
//! functions from outside, on inputs derived from a workload's own profiles
//! and seed, and times them in batches (one clock read per batch, never one
//! per call).
//!
//! The access stream is the workload's trace (`TraceGen`). It flows through
//! private L1/L2 caches and the configured prefetcher, then its L2 misses
//! and prefetch candidates feed a memory controller in a closed loop and,
//! separately, are serviced command by command on the DRAM channels. Each
//! layer therefore sees the occupancy and locality of the workload rather
//! than synthetic strided addresses.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use padc_cache::{Cache, ProbeOutcome};
use padc_core::{AccuracyTracker, MemoryController};
use padc_cpu::{TraceOp, TraceSource};
use padc_dram::{AddressMapper, Channel, StepOutcome};
use padc_prefetch::{build as build_prefetcher, AccessEvent, PrefetcherKind};
use padc_sim::SimConfig;
use padc_store::Store;
use padc_types::{AccessKind, CoreId, Cycle, LineAddr, RequestKind};
use padc_workloads::{BenchProfile, TraceGen};

/// Trace operations generated per timed batch.
const GEN_BATCH: usize = 1024;
/// Accesses per timed cache/prefetcher batch.
const CACHE_BATCH: usize = 512;
/// Controller cycles per timed tick batch; requests enter between batches.
const CTRL_BLOCK: Cycle = 64;
/// Demands each core may have outstanding at the controller (its MSHR
/// share in a closed loop): one core leaves the buffer nearly empty, eight
/// keep a 128-entry buffer full.
const CORE_WINDOW: usize = 16;
/// `next_event` queries per timed batch.
const EVENT_QUERIES: usize = 16;
/// DRAM commands per timed `advance` batch.
const DRAM_BATCH: usize = 256;
/// Safety cap on replayed controller cycles.
const MAX_CTRL_CYCLES: Cycle = 20_000_000;

/// Per-call host costs and outcome ratios of one replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerCosts {
    /// `TraceGen::next_op`, ns per operation.
    pub next_op_ns: f64,
    /// `Cache::probe` (L1 and L2), ns per call.
    pub probe_ns: f64,
    /// `Cache::fill` (L1 and L2), ns per call.
    pub fill_ns: f64,
    /// L2 misses per L2 access, percent.
    pub l2_miss_pct: f64,
    /// `Prefetcher::on_access`, ns per call.
    pub on_access_ns: f64,
    /// Prefetch candidates per L2 access.
    pub candidates_per_access: f64,
    /// `MemoryController::enqueue`, ns per call.
    pub enqueue_ns: f64,
    /// `MemoryController::tick`, ns per call.
    pub tick_ns: f64,
    /// `MemoryController::next_event`, ns per call.
    pub next_event_ns: f64,
    /// `Channel::advance`, ns per issued command.
    pub advance_ns: f64,
    /// `Channel::next_event`, ns per call.
    pub dram_next_event_ns: f64,
    /// Requests that found their row open, percent.
    pub row_hit_pct: f64,
}

/// Accumulates one batch-timed call site.
#[derive(Default)]
struct Timer {
    ns: u128,
    calls: u64,
}

impl Timer {
    fn time<T>(&mut self, calls: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos();
        self.calls += calls as u64;
        out
    }

    fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// One memory access of the trace.
#[derive(Clone, Copy)]
struct Access {
    line: LineAddr,
    pc: u64,
    write: bool,
}

/// Generates `accesses` memory accesses of core `core`'s trace.
fn generate(
    bench: &BenchProfile,
    core: usize,
    seed: u64,
    accesses: usize,
    t: &mut Timer,
) -> Vec<Access> {
    let mut gen = TraceGen::new(bench, core, seed);
    let mut ops: Vec<TraceOp> = Vec::with_capacity(GEN_BATCH);
    let mut out = Vec::with_capacity(accesses);
    while out.len() < accesses {
        ops.clear();
        t.time(GEN_BATCH, || {
            for _ in 0..GEN_BATCH {
                ops.push(gen.next_op());
            }
        });
        out.extend(ops.iter().filter_map(|op| match *op {
            TraceOp::Load { addr, pc, .. } => Some(Access {
                line: addr.line(),
                pc,
                write: false,
            }),
            TraceOp::Store { addr, pc } => Some(Access {
                line: addr.line(),
                pc,
                write: true,
            }),
            TraceOp::Compute => None,
        }));
    }
    out.truncate(accesses);
    out
}

/// Replays `accesses_per_core` accesses of each core's trace through every
/// layer of `cfg` and returns the per-call costs.
pub fn replay_layers(
    benches: &[BenchProfile],
    seed: u64,
    cfg: &SimConfig,
    accesses_per_core: usize,
) -> LayerCosts {
    let cores = benches.len();
    let mut gen_t = Timer::default();
    let streams: Vec<Vec<Access>> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| generate(b, i, seed, accesses_per_core, &mut gen_t))
        .collect();

    // Caches and prefetcher, per core. Each L2 access yields its demand
    // (on a miss) and its prefetch candidates for the controller.
    let mut probe_t = Timer::default();
    let mut fill_t = Timer::default();
    let mut pf_t = Timer::default();
    let (mut l2_accesses, mut l2_misses, mut candidates) = (0u64, 0u64, 0u64);
    let mut requests: Vec<Vec<(LineAddr, RequestKind)>> = vec![Vec::new(); cores];
    let kind = cfg.prefetcher.unwrap_or(PrefetcherKind::Stream);
    for (c, stream) in streams.iter().enumerate() {
        let mut l1 = Cache::new(cfg.l1.clone());
        let mut l2 = Cache::new(cfg.l2_per_cache());
        let mut pf = build_prefetcher(kind);
        let mut cands = Vec::new();
        for chunk in stream.chunks(CACHE_BATCH) {
            let l1_miss: Vec<Access> = probe_t.time(chunk.len(), || {
                chunk
                    .iter()
                    .filter(|a| matches!(l1.probe(a.line, a.write), ProbeOutcome::Miss))
                    .copied()
                    .collect()
            });
            let l2_hit: Vec<bool> = probe_t.time(l1_miss.len(), || {
                l1_miss
                    .iter()
                    .map(|a| !matches!(l2.probe(a.line, false), ProbeOutcome::Miss))
                    .collect()
            });
            // Candidates of all accesses in one buffer; `ends[i]` closes access i's.
            let mut flat: Vec<LineAddr> = Vec::new();
            let ends: Vec<usize> = pf_t.time(l1_miss.len(), || {
                l1_miss
                    .iter()
                    .zip(&l2_hit)
                    .map(|(a, &hit)| {
                        cands.clear();
                        let ev = AccessEvent {
                            core: CoreId::new(c),
                            line: a.line,
                            pc: a.pc,
                            hit,
                            runahead: false,
                        };
                        pf.on_access(&ev, &mut cands);
                        flat.extend_from_slice(&cands);
                        flat.len()
                    })
                    .collect()
            });
            let fills = l1_miss.len() + l2_hit.iter().filter(|h| !**h).count();
            fill_t.time(fills, || {
                for (a, &hit) in l1_miss.iter().zip(&l2_hit) {
                    if !hit {
                        black_box(l2.fill(a.line, false, a.write, false));
                    }
                    black_box(l1.fill(a.line, false, a.write, false));
                }
            });
            let mut start = 0;
            for ((a, &hit), &end) in l1_miss.iter().zip(&l2_hit).zip(&ends) {
                l2_accesses += 1;
                if !hit {
                    l2_misses += 1;
                    requests[c].push((a.line, RequestKind::Demand));
                }
                candidates += (end - start) as u64;
                requests[c].extend(flat[start..end].iter().map(|&l| (l, RequestKind::Prefetch)));
                start = end;
            }
        }
    }

    let (enqueue_ns, tick_ns, next_event_ns) = replay_controller(cfg, &requests);
    let (advance_ns, dram_next_event_ns, row_hit_pct) = replay_channels(cfg, &requests);
    LayerCosts {
        next_op_ns: gen_t.per_call(),
        probe_ns: probe_t.per_call(),
        fill_ns: fill_t.per_call(),
        l2_miss_pct: pct(l2_misses, l2_accesses),
        on_access_ns: pf_t.per_call(),
        candidates_per_access: if l2_accesses == 0 {
            0.0
        } else {
            candidates as f64 / l2_accesses as f64
        },
        enqueue_ns,
        tick_ns,
        next_event_ns,
        advance_ns,
        dram_next_event_ns,
        row_hit_pct,
    }
}

/// Closed-loop controller replay: each core keeps up to [`CORE_WINDOW`]
/// demands outstanding; prefetch candidates enter when the buffer has room
/// and are lost otherwise, as in the simulator. Returns ns per `enqueue`,
/// `tick` and `next_event` call.
fn replay_controller(
    cfg: &SimConfig,
    requests: &[Vec<(LineAddr, RequestKind)>],
) -> (f64, f64, f64) {
    let cores = requests.len();
    let mut mc = MemoryController::new(cfg.controller.clone(), cfg.dram.clone(), cfg.mapping);
    let tracker = AccuracyTracker::new(cores, cfg.controller.accuracy_interval);
    let (mut enq_t, mut tick_t, mut ev_t) = (Timer::default(), Timer::default(), Timer::default());
    let mut next = vec![0usize; cores];
    let mut outstanding = vec![0usize; cores];
    let mut now: Cycle = 0;
    let pending = |next: &[usize]| next.iter().zip(requests).any(|(n, r)| *n < r.len());
    while (pending(&next) || !mc.is_idle()) && now < MAX_CTRL_CYCLES {
        let mut calls = 0;
        let t = Instant::now();
        for c in 0..cores {
            while let Some(&(line, kind)) = requests[c].get(next[c]) {
                let demand = kind == RequestKind::Demand;
                if demand && outstanding[c] >= CORE_WINDOW {
                    break;
                }
                calls += 1;
                let id = mc.enqueue(CoreId::new(c), line, AccessKind::Load, kind, now);
                if id.is_none() && demand {
                    break;
                }
                next[c] += 1;
                if demand {
                    outstanding[c] += 1;
                }
            }
        }
        enq_t.ns += t.elapsed().as_nanos();
        enq_t.calls += calls;
        tick_t.time(CTRL_BLOCK as usize, || {
            for cycle in now..now + CTRL_BLOCK {
                for comp in mc.tick(cycle, &tracker).completions {
                    if !comp.request.was_prefetch {
                        outstanding[comp.request.core.index()] -= 1;
                    }
                }
            }
        });
        now += CTRL_BLOCK;
        ev_t.time(EVENT_QUERIES, || {
            for _ in 0..EVENT_QUERIES {
                black_box(mc.next_event(now, &tracker));
            }
        });
    }
    (enq_t.per_call(), tick_t.per_call(), ev_t.per_call())
}

/// Services the requests (cores interleaved round-robin) command by command
/// on the DRAM channels, one at a time. A first pass finds the cycle at
/// which each command can issue; a second pass on fresh channels replays
/// exactly those `advance` calls in timed batches. Returns ns per `advance`,
/// ns per `next_event`, and the row-hit percentage.
fn replay_channels(cfg: &SimConfig, requests: &[Vec<(LineAddr, RequestKind)>]) -> (f64, f64, f64) {
    let mapper = AddressMapper::new(&cfg.dram, cfg.mapping);
    let fresh = || -> Vec<Channel> {
        (0..cfg.dram.channels)
            .map(|_| Channel::new(&cfg.dram))
            .collect()
    };
    let longest = requests.iter().map(Vec::len).max().unwrap_or(0);
    let order =
        (0..longest).flat_map(|i| requests.iter().filter_map(move |r| r.get(i).map(|q| q.0)));

    let mut channels = fresh();
    let mut commands: Vec<(usize, usize, u64, Cycle)> = Vec::new();
    let (mut served, mut row_hits) = (0u64, 0u64);
    let mut now: Cycle = 0;
    for line in order {
        let t = mapper.map(line);
        let ch = &mut channels[t.channel];
        served += 1;
        if ch.is_row_hit(t.bank, t.row, now) {
            row_hits += 1;
        }
        loop {
            now = now.max(ch.earliest_advance_at(t.bank, t.row, now));
            match ch.advance(t.bank, t.row, false, now) {
                StepOutcome::Blocked => now += 1,
                StepOutcome::CasIssued { .. } => {
                    commands.push((t.channel, t.bank, t.row, now));
                    break;
                }
                StepOutcome::Precharged | StepOutcome::Activated => {
                    commands.push((t.channel, t.bank, t.row, now));
                }
            }
        }
    }

    let mut channels = fresh();
    let (mut adv_t, mut ev_t) = (Timer::default(), Timer::default());
    for batch in commands.chunks(DRAM_BATCH) {
        let blocked = adv_t.time(batch.len(), || {
            batch
                .iter()
                .filter(|&&(c, bank, row, at)| {
                    matches!(
                        channels[c].advance(bank, row, false, at),
                        StepOutcome::Blocked
                    )
                })
                .count()
        });
        assert_eq!(
            blocked, 0,
            "the timed replay must repeat the recorded commands"
        );
        let &(c, _, _, at) = batch.last().expect("chunks are non-empty");
        ev_t.time(EVENT_QUERIES, || {
            for _ in 0..EVENT_QUERIES {
                black_box(channels[c].next_event(at));
            }
        });
    }
    (adv_t.per_call(), ev_t.per_call(), pct(row_hits, served))
}

/// One store entry: digest, meta document, payload.
pub type Entry = (String, String, String);

/// Reads every entry of the store at `root`, sorted by digest. An entry is
/// the file `objects/<shard>/<digest>` holding a header line ending in
/// `<meta-len> <payload-len>`, then `<meta>\n<payload>\n`.
pub fn read_store_entries(root: &Path) -> io::Result<Vec<Entry>> {
    let mut out = Vec::new();
    for shard in std::fs::read_dir(root.join("objects"))? {
        let shard = shard?;
        if !shard.file_type()?.is_dir() {
            continue;
        }
        for file in std::fs::read_dir(shard.path())? {
            let file = file?;
            let digest = file.file_name().to_string_lossy().into_owned();
            if digest.starts_with('.') {
                continue;
            }
            let text = std::fs::read_to_string(file.path())?;
            let bad = || {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad store entry {digest}"),
                )
            };
            let (header, body) = text.split_once('\n').ok_or_else(bad)?;
            let mut fields = header.rsplitn(3, ' ').map(str::parse::<usize>);
            let (Some(Ok(payload_len)), Some(Ok(meta_len))) = (fields.next(), fields.next()) else {
                return Err(bad());
            };
            let meta = body.get(..meta_len).ok_or_else(bad)?.to_string();
            let payload = body
                .get(meta_len + 1..meta_len + 1 + payload_len)
                .ok_or_else(bad)?
                .to_string();
            out.push((digest, meta, payload));
        }
    }
    out.sort();
    Ok(out)
}

/// Puts every entry into a fresh store at `root`, then loads each back,
/// each pass timed as one batch. Returns ms per `put` and per `load`.
///
/// # Errors
///
/// Any store I/O error, or a load that does not return what was put.
pub fn replay_store(root: &Path, entries: &[Entry]) -> io::Result<(f64, f64)> {
    let store = Store::open(root)?;
    let mut put_t = Timer::default();
    put_t.time(entries.len(), || {
        entries
            .iter()
            .try_for_each(|(digest, meta, payload)| store.put(digest, meta, payload))
    })?;
    let mut load_t = Timer::default();
    let lost = load_t.time(entries.len(), || {
        entries
            .iter()
            .filter(|(digest, meta, payload)| store.load(digest, meta).as_ref() != Some(payload))
            .count()
    });
    if lost > 0 {
        return Err(io::Error::other(format!(
            "{lost} store entries did not load back"
        )));
    }
    Ok((put_t.per_call() / 1e6, load_t.per_call() / 1e6))
}
