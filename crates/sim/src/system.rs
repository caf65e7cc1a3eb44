use std::collections::HashMap;

use padc_cache::{Cache, MshrFile, ProbeOutcome, Waiter};
use padc_core::{AccuracyTracker, Completion, MemoryController};
use padc_cpu::TraceSource;
use padc_cpu::{AccessResponse, Core, CoreStats, MemAccess, MemorySystem};
use padc_prefetch::{
    build as build_prefetcher, AccessEvent, Ddpf, DdpfConfig, Fdp, FdpConfig, FdpFeedback,
    PollutionFilter, Prefetcher,
};
use padc_types::{AccessKind, CoreId, Cycle, LineAddr, MemRequest, RequestKind};
use padc_workloads::{BenchProfile, TraceGen};

use crate::profile::{self, SimProfile};
use crate::{CoreReport, Report, SimConfig, Traffic};

/// How [`System::run`] may skip over provably unobservable cycles.
///
/// Every mode produces **bit-identical** reports; they differ only in how
/// aggressively stall cycles are elided (DESIGN.md §11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FastForwardMode {
    /// Step every cycle (the reference oracle).
    Off,
    /// Per-core event horizon (default): each idle core lags behind the
    /// global clock independently until its own wake-up, resynchronizing
    /// only at observable-interaction points; when every core lags, the
    /// global clock jumps to the earliest proven event.
    #[default]
    Horizon,
    /// Event-driven controller stepping: horizon scheduling for the
    /// cores *plus* a cached
    /// [`MemoryController::next_event`](padc_core::MemoryController::next_event)
    /// proof that lets the whole controller phase (controller tick,
    /// accuracy-tracker tick, channel sync) be elided on cycles proven
    /// event-free — the controller advances by event deltas instead of
    /// unit cycles (see the `event` module in this file).
    Event,
}

impl FastForwardMode {
    /// Canonical flag spelling (`--fast-forward=<this>`).
    pub fn as_str(self) -> &'static str {
        match self {
            FastForwardMode::Off => "off",
            FastForwardMode::Horizon => "horizon",
            FastForwardMode::Event => "event",
        }
    }
}

impl std::str::FromStr for FastForwardMode {
    type Err = String;

    /// Parses `off|horizon|event`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(FastForwardMode::Off),
            "horizon" => Ok(FastForwardMode::Horizon),
            "event" => Ok(FastForwardMode::Event),
            other => Err(format!(
                "unknown fast-forward mode '{other}' (expected off|horizon|event)"
            )),
        }
    }
}

/// Process-wide default fast-forward mode: 0 = unset (`Horizon`), else
/// 1 + the forced mode.
static FF_DEFAULT: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Overrides the process-wide fast-forward mode used by newly built
/// [`System`]s (the `--fast-forward` CLI flag). Existing systems keep
/// their setting; use [`System::set_fast_forward_mode`] to change one
/// directly.
pub fn set_fast_forward_mode_default(mode: FastForwardMode) {
    let v = match mode {
        FastForwardMode::Off => 1,
        FastForwardMode::Horizon => 2,
        FastForwardMode::Event => 3,
    };
    FF_DEFAULT.store(v, std::sync::atomic::Ordering::Relaxed);
}

/// The fast-forward mode for new [`System`]s: the last
/// [`set_fast_forward_mode_default`] override, else `Horizon`.
pub fn fast_forward_mode_default() -> FastForwardMode {
    match FF_DEFAULT.load(std::sync::atomic::Ordering::Relaxed) {
        1 => FastForwardMode::Off,
        3 => FastForwardMode::Event,
        _ => FastForwardMode::Horizon,
    }
}

/// Per-core accounting kept by the memory subsystem.
#[derive(Clone, Copy, Debug, Default)]
struct PerCore {
    l2_accesses: u64,
    l2_misses: u64,
    demand_traffic: u64,
    /// Prefetch fills (usefulness resolved lazily).
    pref_filled: u64,
    /// P-bit consumptions (useful prefetches discovered in the cache).
    useful_pbit: u64,
    /// In-buffer promotions (useful prefetches discovered in the MRB).
    promotions: u64,
    pf_sent: u64,
    pf_used: u64,
    pf_filtered: u64,
    pf_no_space: u64,
    pf_dropped: u64,
    rbhu_demand_hits: u64,
    rbhu_demand_total: u64,
    rbhu_useful_hits: u64,
    rbhu_useful_total: u64,
}

/// FDP interval counters per core.
#[derive(Clone, Copy, Debug, Default)]
struct FdpAccum {
    sent: u64,
    used: u64,
    late: u64,
    pollution: u64,
    demands: u64,
}

/// Caches, MSHRs, prefetchers, and the DRAM controller — everything below
/// the cores. Implements [`MemorySystem`].
struct MemSubsystem {
    shared_l2: bool,
    l1_latency: Cycle,
    l2_latency: Cycle,
    l1s: Vec<Cache>,
    l2s: Vec<Cache>,
    mshrs: Vec<MshrFile>,
    prefetchers: Vec<Box<dyn Prefetcher>>,
    ddpf: Option<Vec<Ddpf>>,
    fdp: Option<Vec<Fdp>>,
    pollution: Vec<PollutionFilter>,
    fdp_acc: Vec<FdpAccum>,
    controller: MemoryController,
    tracker: AccuracyTracker,
    pc: Vec<PerCore>,
    scratch: Vec<LineAddr>,
    now: Cycle,
    /// Prefetch memory-service-time histogram (Fig. 4(a)): 9 buckets of 200
    /// cycles, split by eventual usefulness. `hist_pending` holds the bucket
    /// of each prefetched line whose usefulness is not yet known.
    hist_useful: [u64; 9],
    hist_useless: [u64; 9],
    hist_pending: HashMap<LineAddr, u8>,
}

/// Bucket index for a prefetch service time (200-cycle buckets, Fig. 4(a)).
fn service_bucket(cycles: Cycle) -> u8 {
    ((cycles / 200) as u8).min(8)
}

impl MemSubsystem {
    fn l2_index(&self, core: usize) -> usize {
        if self.shared_l2 {
            0
        } else {
            core
        }
    }

    fn prefetching(&self) -> bool {
        !self.prefetchers.is_empty()
    }

    /// Useful prefetch discovered via its `P` bit in the cache.
    fn credit_pbit_use(&mut self, core: CoreId, line: LineAddr, fill_was_row_hit: bool) {
        let c = core.index();
        if let Some(bucket) = self.hist_pending.remove(&line) {
            self.hist_useful[bucket as usize] += 1;
        }
        self.tracker.on_prefetch_used(core);
        self.pc[c].useful_pbit += 1;
        self.pc[c].pf_used += 1;
        self.pc[c].rbhu_useful_total += 1;
        if fill_was_row_hit {
            self.pc[c].rbhu_useful_hits += 1;
        }
        self.fdp_acc[c].used += 1;
        if let Some(dd) = &mut self.ddpf {
            dd[c].train(line, true);
        }
    }

    /// Useful prefetch discovered by a demand matching it in the MRB/MSHR.
    fn credit_promotion(&mut self, core: CoreId, line: LineAddr) {
        let c = core.index();
        self.tracker.on_prefetch_used(core);
        self.pc[c].promotions += 1;
        self.pc[c].pf_used += 1;
        self.fdp_acc[c].used += 1;
        self.fdp_acc[c].late += 1; // demand arrived before the prefetch: late
        if let Some(dd) = &mut self.ddpf {
            dd[c].train(line, true);
        }
    }

    fn fill_l1(&mut self, core: usize, line: LineAddr, dirty: bool) {
        if let Some(ev) = self.l1s[core].fill(line, false, dirty, false) {
            if ev.dirty {
                let li = self.l2_index(core);
                if !self.l2s[li].mark_dirty(ev.line) {
                    // Line no longer in L2: write back to memory directly.
                    self.controller
                        .enqueue_writeback(CoreId::new(core), ev.line, self.now);
                }
            }
        }
    }

    fn notify_prefetcher(
        &mut self,
        core: CoreId,
        line: LineAddr,
        pc: u64,
        hit: bool,
        runahead: bool,
    ) {
        if !self.prefetching() {
            return;
        }
        let ev = AccessEvent {
            core,
            line,
            pc,
            hit,
            runahead,
        };
        let mut cands = std::mem::take(&mut self.scratch);
        cands.clear();
        self.prefetchers[core.index()].on_access(&ev, &mut cands);
        for cand in &cands {
            self.issue_prefetch(core, *cand);
        }
        self.scratch = cands;
    }

    fn issue_prefetch(&mut self, core: CoreId, line: LineAddr) {
        let c = core.index();
        let li = self.l2_index(c);
        if self.l2s[li].peek(line) || self.mshrs[li].get(line).is_some() {
            return;
        }
        if let Some(dd) = &mut self.ddpf {
            if !dd[c].should_issue(line) {
                self.pc[c].pf_filtered += 1;
                return;
            }
        }
        if self.mshrs[li].is_full() || !self.controller.has_space() {
            self.pc[c].pf_no_space += 1;
            return;
        }
        let id = self
            .controller
            .enqueue(
                core,
                line,
                AccessKind::Load,
                RequestKind::Prefetch,
                self.now,
            )
            .expect("space was checked");
        let ok = self.mshrs[li].allocate(line, true, id);
        debug_assert!(ok, "MSHR space was checked");
        self.tracker.on_prefetch_sent(core);
        self.pc[c].pf_sent += 1;
        self.fdp_acc[c].sent += 1;
    }

    /// APD dropped a prefetch: release its MSHR entry.
    fn on_dropped(&mut self, req: &MemRequest) {
        let c = req.core.index();
        let li = self.l2_index(c);
        self.mshrs[li].invalidate_prefetch(req.line);
        self.pc[c].pf_dropped += 1;
        if let Some(dd) = &mut self.ddpf {
            dd[c].train(req.line, false);
        }
    }

    /// A DRAM data burst finished: fill caches, classify traffic, return the
    /// waiters to wake.
    fn on_completion(&mut self, comp: &Completion, now: Cycle) -> Vec<Waiter> {
        let req = &comp.request;
        let c = req.core.index();
        // Writebacks carry no MSHR entry and fill nothing.
        if req.access == AccessKind::Store && !req.was_prefetch {
            self.pc[c].demand_traffic += 1;
            return Vec::new();
        }
        let li = self.l2_index(c);
        let entry = self.mshrs[li].remove(req.line);
        let still_prefetch = req.kind.is_prefetch();
        match (req.was_prefetch, still_prefetch) {
            (true, true) => self.pc[c].pref_filled += 1,
            (true, false) => {
                // Promoted in the buffer: useful prefetch traffic.
                self.pc[c].rbhu_useful_total += 1;
                if comp.row_hit {
                    self.pc[c].rbhu_useful_hits += 1;
                }
            }
            (false, _) => {
                self.pc[c].demand_traffic += 1;
                self.pc[c].rbhu_demand_total += 1;
                if comp.row_hit {
                    self.pc[c].rbhu_demand_hits += 1;
                }
            }
        }
        // Fig. 4(a) service-time histogram bookkeeping.
        if req.was_prefetch {
            let bucket = service_bucket(now.saturating_sub(req.arrival));
            if still_prefetch {
                // A re-prefetch of a line whose earlier copy was never
                // used resolves the earlier one as useless.
                if let Some(old) = self.hist_pending.insert(req.line, bucket) {
                    self.hist_useless[old as usize] += 1;
                }
            } else {
                // Promoted in flight: known useful.
                self.hist_useful[bucket as usize] += 1;
            }
        }
        let dirty = entry.as_ref().is_some_and(|e| e.write);
        if let Some(ev) = self.l2s[li].fill(req.line, still_prefetch, dirty, comp.row_hit) {
            if ev.dirty {
                self.controller.enqueue_writeback(req.core, ev.line, now);
            }
            if ev.unused_prefetch {
                if let Some(dd) = &mut self.ddpf {
                    dd[c].train(ev.line, false);
                }
            } else if still_prefetch {
                // A prefetch displaced a demand-owned line: pollution.
                self.pollution[c].record_eviction(ev.line);
            }
        }
        if !still_prefetch {
            self.fill_l1(c, req.line, dirty);
        }
        entry.map(|e| e.waiters).unwrap_or_default()
    }

    /// Accuracy-interval rollover: drive FDP throttling.
    fn on_interval_rollover(&mut self) {
        let Some(fdp) = &mut self.fdp else { return };
        for (c, slot) in self.fdp_acc.iter_mut().enumerate() {
            let acc = std::mem::take(slot);
            let fb = FdpFeedback {
                sent: acc.sent,
                used: acc.used,
                late: acc.late,
                pollution: acc.pollution,
                demands: acc.demands,
            };
            let level = fdp[c].end_interval(fb);
            self.prefetchers[c].set_aggressiveness(level.degree, level.distance);
        }
    }
}

impl MemorySystem for MemSubsystem {
    fn access(&mut self, core: CoreId, acc: &MemAccess, now: Cycle) -> AccessResponse {
        self.now = now;
        let c = core.index();
        let line = acc.addr.line();
        let is_store = acc.kind == AccessKind::Store;
        // Structural pre-check with no side effects: an access that will
        // need a new MSHR entry but cannot get one (or cannot enter the
        // request buffer) retries WITHOUT touching cache state or the
        // prefetcher — a retried access must be observed exactly once.
        if !self.l1s[c].peek(line) {
            let li = self.l2_index(c);
            if !self.l2s[li].peek(line)
                && self.mshrs[li].get(line).is_none()
                && (self.mshrs[li].is_full() || !self.controller.has_space())
            {
                return AccessResponse::Retry;
            }
        }
        if let ProbeOutcome::Hit(_) = self.l1s[c].probe(line, is_store) {
            return AccessResponse::Hit {
                latency: self.l1_latency,
            };
        }
        let li = self.l2_index(c);
        if !acc.runahead {
            self.pc[c].l2_accesses += 1;
            self.fdp_acc[c].demands += 1;
        }
        match self.l2s[li].probe(line, is_store) {
            ProbeOutcome::Hit(info) => {
                if info.first_demand_use_of_prefetch {
                    self.credit_pbit_use(core, line, info.fill_was_row_hit);
                }
                self.fill_l1(c, line, is_store);
                self.notify_prefetcher(core, line, acc.pc, true, acc.runahead);
                AccessResponse::Hit {
                    latency: self.l1_latency + self.l2_latency,
                }
            }
            ProbeOutcome::Miss => {
                if !acc.runahead && self.pollution[c].check_and_clear(line) {
                    self.fdp_acc[c].pollution += 1;
                }
                if let Some(e) = self.mshrs[li].get_mut(line) {
                    if e.prefetch {
                        e.prefetch = false;
                        self.controller.promote_prefetch(line);
                        self.credit_promotion(core, line);
                        // A demand matching an in-flight prefetch is a
                        // (late-covered) primary miss.
                        if !acc.runahead {
                            self.pc[c].l2_misses += 1;
                        }
                    }
                    if is_store {
                        self.mshrs[li].get_mut(line).expect("just found").write = true;
                    } else if !acc.runahead {
                        self.mshrs[li]
                            .get_mut(line)
                            .expect("just found")
                            .waiters
                            .push(Waiter {
                                core,
                                token: acc.token,
                            });
                    }
                    self.notify_prefetcher(core, line, acc.pc, false, acc.runahead);
                    return AccessResponse::Pending;
                }
                // New miss: the structural pre-check above guaranteed space.
                debug_assert!(!self.mshrs[li].is_full() && self.controller.has_space());
                let id = self
                    .controller
                    .enqueue(core, line, AccessKind::Load, RequestKind::Demand, now)
                    .expect("space was checked");
                let ok = self.mshrs[li].allocate(line, false, id);
                debug_assert!(ok);
                // Primary demand miss (merges into existing entries are
                // secondary and not MPKI-relevant).
                if !acc.runahead {
                    self.pc[c].l2_misses += 1;
                }
                let e = self.mshrs[li].get_mut(line).expect("just allocated");
                if is_store {
                    e.write = true;
                } else if !acc.runahead {
                    e.waiters.push(Waiter {
                        core,
                        token: acc.token,
                    });
                }
                // The prefetcher observes the miss after the demand has
                // claimed its MSHR entry (demands get structural priority).
                self.notify_prefetcher(core, line, acc.pc, false, acc.runahead);
                AccessResponse::Pending
            }
        }
    }
}

/// Per-core event-horizon scheduling: the bookkeeping for
/// [`FastForwardMode::Horizon`] and the invariants that make it
/// bit-identical to cycle-by-cycle stepping.
///
/// # The equivalence argument
///
/// The global clock `System::now` still advances monotonically, but an
/// *idle* core is allowed to lag behind it: its pure-stall ticks are not
/// executed when they are due, only replayed later as stall-counter
/// bumps ([`Core::skip_idle_cycles`]). A *busy* core is always ticked at
/// the global clock, in core-index order, exactly as in `Off` mode. Four
/// invariants make the skew unobservable:
///
/// - **I1 (no missed ticks).** `due[c]` is the next global cycle at which
///   core `c` must execute a real tick; the stepping loop never passes
///   `due[c]` without ticking `c` (checked by a `debug_assert` in
///   `HorizonState::is_due`).
/// - **I2 (lag windows are classified).** Whenever `behind[c] < due[c]`,
///   `idle[c]` holds the [`padc_cpu::IdleState`] taken at `behind[c]`,
///   and core `c` has been neither ticked nor completed since. Nothing
///   else mutates a [`Core`], and the only time-dependent input to
///   [`Core::idle_state`] is the head-retirement comparison
///   `done_at <= now`, which flips exactly at `wake_at` — the first
///   cycle *excluded* from the window — so the classification is
///   constant across the whole window and the deferred replay is equal
///   to having ticked every cycle in it.
/// - **I3 (isolation).** A pure-stall tick touches only the core's own
///   stall counters: it calls neither [`MemorySystem::access`] nor
///   anything on the shared state (caches, MSHRs, controller, accuracy
///   tracker) — and no core ever reads another core's private state.
///   Cores interact *only* through the memory subsystem, so a lagging
///   core is invisible to every other component until one of its resync
///   points:
///   - a **completion** for the core ([`Core::complete`] mutates it and
///     changes its classification, so the window is closed — replayed —
///     immediately before the completion is delivered, and the core is
///     marked due so its next tick re-classifies);
///   - its own **`wake_at`** (the first self-driven state change);
///   - the next **PAR-interval rollover**
///     ([`AccuracyTracker::next_rollover`]): rollovers re-derive the
///     drop thresholds, criticality and rank the controller acts on, so
///     `due[c]` is capped at the rollover to keep every skew window
///     inside one accuracy interval. (Pure-stall ticks never touch the
///     tracker, so this cap is defensive layering, not load-bearing —
///     it costs one replayed tick per core per interval.)
/// - **I4 (controller exactness).** The controller, tracker, and trace
///   sources are stepped at the global clock whenever *any* core is due
///   (cycle-exactly), and a global jump over a fully-lagging window is
///   taken only when bounded by `min(due)`,
///   [`MemoryController::next_event`], the PAR rollover, and the run's
///   cycle limit — each early but never late (DESIGN.md §11).
///
/// Together: every observable interaction (memory access, completion
/// delivery, tracker update, retirement past the instruction target)
/// happens at exactly the same global cycle, with exactly the same
/// operand state, as in `Off` mode — so reports are byte-identical
/// (enforced by `crates/sim/tests/fastforward.rs` and the determinism
/// gate).
mod horizon {
    use padc_cpu::{Core, IdleState};
    use padc_types::Cycle;

    use crate::profile::SimProfile;

    /// Skew bookkeeping for every core (see the module docs).
    pub(super) struct HorizonState {
        /// `due[c]`: next global cycle at which core `c` must execute a
        /// real tick. `due[c] <= now` means "in lockstep"; `due[c] > now`
        /// means the core lags and `[behind[c], due[c])` is a proven
        /// pure-stall window.
        due: Vec<Cycle>,
        /// `behind[c]`: first cycle whose tick has been neither executed
        /// nor replayed for core `c`.
        behind: Vec<Cycle>,
        /// Replay classification covering `[behind[c], due[c])` (I2).
        idle: Vec<Option<IdleState>>,
    }

    impl HorizonState {
        pub(super) fn new(cores: usize, now: Cycle) -> Self {
            HorizonState {
                due: vec![now; cores],
                behind: vec![now; cores],
                idle: vec![None; cores],
            }
        }

        /// True when core `c` must be ticked at `now` (I1).
        pub(super) fn is_due(&self, c: usize, now: Cycle) -> bool {
            debug_assert!(
                self.due[c] >= now,
                "I1 violated: core {c} missed its due tick"
            );
            self.due[c] <= now
        }

        /// True when every core lags past `now` (a global jump may fire).
        pub(super) fn all_lagging(&self, now: Cycle) -> bool {
            self.due.iter().all(|&d| d > now)
        }

        /// Earliest due tick across all cores (a global-jump bound).
        pub(super) fn min_due(&self) -> Cycle {
            self.due.iter().copied().min().unwrap_or(Cycle::MAX)
        }

        /// Replays core `c`'s deferred pure-stall ticks up to (not
        /// including) `to` (I2: one `skip_idle_cycles` call equals the
        /// elided ticks).
        pub(super) fn catch_up(
            &mut self,
            c: usize,
            to: Cycle,
            core: &mut Core,
            profile: &mut SimProfile,
        ) {
            let from = self.behind[c];
            if from >= to {
                return;
            }
            let idle = self.idle[c]
                .as_ref()
                .expect("I2 violated: lagging core carries no idle classification");
            core.skip_idle_cycles(idle, to - from);
            profile.core_cycles_skipped += to - from;
            profile.horizon_resyncs += 1;
            self.behind[c] = to;
        }

        /// Forces core `c` back into lockstep at `now` (completion
        /// delivery): replay the lag window, then mark the core due so
        /// its tick at `now` runs for real and re-classifies.
        pub(super) fn wake(
            &mut self,
            c: usize,
            now: Cycle,
            core: &mut Core,
            profile: &mut SimProfile,
        ) {
            self.catch_up(c, now, core, profile);
            self.due[c] = now;
        }

        /// Re-classifies core `c` right after its real tick at `now`:
        /// either it stays in lockstep (busy) or a new lag window opens,
        /// bounded by its own wake-up and the next PAR rollover (I3).
        pub(super) fn reclassify(
            &mut self,
            c: usize,
            now: Cycle,
            core: &Core,
            par_rollover: Cycle,
        ) {
            self.behind[c] = now + 1;
            match core.idle_state(now + 1) {
                None => {
                    self.idle[c] = None;
                    self.due[c] = now + 1;
                }
                Some(idle) => {
                    let wake = idle.wake_at.unwrap_or(Cycle::MAX);
                    debug_assert!(wake > now + 1, "wake_at inside the classified window");
                    self.due[c] = wake.min(par_rollover);
                    self.idle[c] = Some(idle);
                }
            }
            debug_assert!(self.due[c] > now);
        }

        /// Replays every core's outstanding lag window up to `to` (run
        /// exit: live stats must match a cycle-exact run that stopped at
        /// the same cycle).
        pub(super) fn flush(&mut self, to: Cycle, cores: &mut [Core], profile: &mut SimProfile) {
            for (c, core) in cores.iter_mut().enumerate() {
                self.catch_up(c, to, core, profile);
            }
        }
    }
}

/// Event-driven controller stepping: the bookkeeping for
/// [`FastForwardMode::Event`] and the invariants that make it
/// bit-identical to the other two modes.
///
/// Horizon mode already elides most *core* ticks but still executes the
/// controller phase (controller tick, accuracy-tracker tick, per-channel
/// sync) on every stepped cycle. `Event` composes on top of `Horizon`
/// without touching the core machinery: a cached
/// [`MemoryController::next_event`](padc_core::MemoryController::next_event)
/// bound turns the controller phase into an event-delta advance — the
/// phase runs only at cycles the proof says can do observable work, so
/// controller stepping is O(events), not O(stepped cycles).
///
/// # The equivalence argument (invariants E1–E4, mirroring I1–I4)
///
/// - **E1 (a skipped phase is a proven no-op).** When the phase is
///   skipped at cycle `m`, the cached bound satisfies `m < ctrl_next` and
///   was proven under the controller's current mutation epoch. By the
///   `next_event` contract (DESIGN.md §11), `tick(m)` would collect no
///   completion, drop no prefetch, drain no writeback, issue no command,
///   flip no batch/write-drain state, and apply no refresh — and
///   [`AccuracyTracker::tick`] strictly before the rollover mutates
///   nothing, and [`padc_dram::Channel::sync`] before the next refresh
///   boundary mutates nothing. Every byte of controller, tracker, and
///   channel state is unchanged, so eliding the phase is unobservable
///   (this is exactly what the `next_event` soundness proptest in
///   `padc-core` checks cycle-by-cycle).
/// - **E2 (mutations invalidate).** Every externally visible controller
///   mutation — [`MemoryController::enqueue`](padc_core::MemoryController::enqueue),
///   [`MemoryController::enqueue_writeback`](padc_core::MemoryController::enqueue_writeback),
///   a successful [`MemoryController::promote_prefetch`](padc_core::MemoryController::promote_prefetch)
///   — bumps [`MemoryController::mutation_epoch`](padc_core::MemoryController::mutation_epoch).
///   A bound proven under an older epoch is discarded and re-proven from
///   the live state before the next skip decision, so core-side activity
///   (which runs *after* the controller phase within a cycle, exactly as
///   in `Off` mode) can never be overlooked.
/// - **E3 (rollovers and run boundaries execute).** The bound is capped
///   at [`AccuracyTracker::next_rollover`], so the PAR rollover tick (and
///   the FDP feedback it drives) executes at exactly the same cycle with
///   exactly the same counter state as in `Off` mode; the elided tracker
///   ticks in between return `false` and mutate nothing.
/// - **E4 (composition with horizon).** The horizon machinery is
///   untouched: completions are delivered — and lagging cores woken —
///   only from *executed* controller phases, which by E1 are the only
///   cycles where completions exist at all. A global jump in event mode
///   is bounded by the validated cached bound (same value `next_event`
///   would return), the earliest due core, the PAR rollover, and
///   `max_cycles` — the same early-but-never-late bounds as horizon
///   mode. The composition rule: **core skipping and controller skipping
///   are independent proofs over disjoint state**; cores interact with
///   the controller only through [`MemorySystem::access`] (epoch-guarded
///   by E2), and the controller reaches cores only through completions
///   (which force an executed phase by E1).
mod event {
    use padc_core::{AccuracyTracker, MemoryController};
    use padc_types::Cycle;

    /// Cached controller-event proof (see the module docs).
    pub(super) struct EventState {
        /// First cycle at or after which the controller phase may do
        /// observable work; every cycle before it is provably a no-op
        /// under `epoch`.
        ctrl_next: Cycle,
        /// [`MemoryController::mutation_epoch`] the bound was proven
        /// under (E2).
        epoch: u64,
    }

    impl EventState {
        pub(super) fn new(
            now: Cycle,
            ctrl: &mut MemoryController,
            tracker: &AccuracyTracker,
        ) -> Self {
            let mut s = EventState {
                ctrl_next: now,
                epoch: ctrl.mutation_epoch(),
            };
            s.reprove(now, ctrl, tracker);
            s
        }

        /// Re-proves the bound from the controller's live state. `from`
        /// is the first cycle whose tick has not yet executed, so the
        /// bound is clamped to at least `from`.
        fn reprove(&mut self, from: Cycle, ctrl: &mut MemoryController, tracker: &AccuracyTracker) {
            let mut bound = tracker.next_rollover();
            if let Some(ev) = ctrl.next_event(from, tracker) {
                bound = bound.min(ev);
            }
            self.ctrl_next = bound.max(from);
            self.epoch = ctrl.mutation_epoch();
        }

        /// Ensures the cached bound is valid at `now`: re-proves if any
        /// external mutation happened since it was computed (E2).
        pub(super) fn validate(
            &mut self,
            now: Cycle,
            ctrl: &mut MemoryController,
            tracker: &AccuracyTracker,
        ) {
            if ctrl.mutation_epoch() != self.epoch {
                self.reprove(now, ctrl, tracker);
            }
        }

        /// True when the controller phase at `now` must execute (E1).
        pub(super) fn controller_due(
            &mut self,
            now: Cycle,
            ctrl: &mut MemoryController,
            tracker: &AccuracyTracker,
        ) -> bool {
            self.validate(now, ctrl, tracker);
            debug_assert!(
                self.ctrl_next >= now,
                "E1 violated: controller missed its event tick"
            );
            now >= self.ctrl_next
        }

        /// Rearms after an executed controller phase at `now` (called
        /// after completion delivery and the tracker tick, so writebacks
        /// enqueued by fills and the post-rollover PAR are folded in).
        pub(super) fn rearm(
            &mut self,
            now: Cycle,
            ctrl: &mut MemoryController,
            tracker: &AccuracyTracker,
        ) {
            self.reprove(now + 1, ctrl, tracker);
        }

        /// The proven bound (valid only right after [`EventState::validate`]
        /// under an unchanged epoch); used as the global-jump bound in
        /// event mode (E4).
        pub(super) fn ctrl_next(&self) -> Cycle {
            self.ctrl_next
        }
    }
}

/// The full simulated system: cores + traces + memory subsystem.
///
/// Construct with a [`SimConfig`] and one [`BenchProfile`] per core, then
/// call [`System::run`].
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    traces: Vec<Box<dyn TraceSource>>,
    mem: MemSubsystem,
    now: Cycle,
    finish_cycle: Vec<Option<Cycle>>,
    core_snapshots: Vec<Option<CoreStats>>,
    mem_snapshots: Vec<Option<PerCore>>,
    benchmark_names: Vec<String>,
    /// Fast-forward mode for [`System::run`] (every mode is bit-identical
    /// to cycle-by-cycle stepping; see DESIGN.md §11 and the `horizon`
    /// module in this file).
    ff_mode: FastForwardMode,
    profile: SimProfile,
}

impl System {
    /// Builds a system running `benchmarks` (one per core).
    ///
    /// # Panics
    ///
    /// Panics if the benchmark count does not match `cfg.cores` or the
    /// configuration is inconsistent.
    pub fn new(cfg: SimConfig, benchmarks: Vec<BenchProfile>) -> Self {
        cfg.validate();
        assert_eq!(
            benchmarks.len(),
            cfg.cores,
            "need one benchmark per core ({} cores, {} benchmarks)",
            cfg.cores,
            benchmarks.len()
        );
        let traces: Vec<Box<dyn TraceSource>> = benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| Box::new(TraceGen::new(b, i, cfg.seed)) as Box<dyn TraceSource>)
            .collect();
        let names = benchmarks.iter().map(|b| b.name.clone()).collect();
        Self::from_parts(cfg, traces, names)
    }

    /// Builds a system from arbitrary trace sources (e.g. recorded trace
    /// files loaded via [`padc_workloads::TraceFileSource`]) instead of the
    /// built-in synthetic profiles. `names` label the per-core reports.
    ///
    /// # Panics
    ///
    /// Panics if the trace/name counts do not match `cfg.cores` or the
    /// configuration is inconsistent.
    pub fn with_traces(
        cfg: SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        names: Vec<String>,
    ) -> Self {
        cfg.validate();
        assert_eq!(traces.len(), cfg.cores, "one trace per core");
        assert_eq!(names.len(), cfg.cores, "one name per core");
        Self::from_parts(cfg, traces, names)
    }

    fn from_parts(
        cfg: SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        benchmark_names: Vec<String>,
    ) -> Self {
        let cores: Vec<Core> = (0..cfg.cores)
            .map(|i| Core::new(CoreId::new(i), cfg.core))
            .collect();
        let n_l2 = if cfg.shared_l2 { 1 } else { cfg.cores };
        let l2_cfg = cfg.l2_per_cache();
        let mem = MemSubsystem {
            shared_l2: cfg.shared_l2,
            l1_latency: cfg.l1.hit_latency,
            l2_latency: l2_cfg.hit_latency,
            l1s: (0..cfg.cores).map(|_| Cache::new(cfg.l1.clone())).collect(),
            l2s: (0..n_l2).map(|_| Cache::new(l2_cfg.clone())).collect(),
            mshrs: (0..n_l2)
                .map(|_| MshrFile::new(cfg.mshr_per_cache()))
                .collect(),
            prefetchers: match cfg.prefetcher {
                Some(kind) => (0..cfg.cores).map(|_| build_prefetcher(kind)).collect(),
                None => Vec::new(),
            },
            ddpf: cfg.ddpf.then(|| {
                (0..cfg.cores)
                    .map(|_| Ddpf::new(DdpfConfig::default()))
                    .collect()
            }),
            fdp: cfg.fdp.then(|| {
                (0..cfg.cores)
                    .map(|_| Fdp::new(FdpConfig::default()))
                    .collect()
            }),
            pollution: (0..cfg.cores).map(|_| PollutionFilter::new(4096)).collect(),
            fdp_acc: vec![FdpAccum::default(); cfg.cores],
            controller: MemoryController::new(
                cfg.controller.clone(),
                cfg.dram.clone(),
                cfg.mapping,
            ),
            tracker: AccuracyTracker::new(cfg.cores, cfg.controller.accuracy_interval),
            pc: vec![PerCore::default(); cfg.cores],
            scratch: Vec::with_capacity(16),
            now: 0,
            hist_useful: [0; 9],
            hist_useless: [0; 9],
            hist_pending: HashMap::new(),
        };
        // FDP starts the stream prefetcher at its initial (milder) level.
        let mut sys = System {
            benchmark_names,
            cores,
            traces,
            mem,
            now: 0,
            finish_cycle: vec![None; cfg.cores],
            core_snapshots: vec![None; cfg.cores],
            mem_snapshots: vec![None; cfg.cores],
            cfg,
            ff_mode: fast_forward_mode_default(),
            profile: SimProfile::default(),
        };
        if sys.cfg.fdp {
            let level = Fdp::new(FdpConfig::default()).level();
            for pf in &mut sys.mem.prefetchers {
                pf.set_aggressiveness(level.degree, level.distance);
            }
        }
        sys
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The prefetch accuracy (`PAR`) the controller currently acts on for
    /// `core` — last interval's measurement (§4.1). Exposed for phase-
    /// behaviour experiments (Fig. 4(b)).
    pub fn accuracy(&self, core: usize) -> f64 {
        self.mem.tracker.accuracy(padc_types::CoreId::new(core))
    }

    /// Advances the whole system by one CPU cycle.
    pub fn step(&mut self) {
        self.step_inner(None, None);
    }

    /// One global-clock step. With `hz` set (horizon and event modes),
    /// only *due* cores execute a real tick; lagging cores are left
    /// untouched until a resync point replays their stall window (see the
    /// `horizon` module docs). With `hz == None` every core ticks
    /// (`Off`). With `ev` set (event mode), the controller phase executes
    /// only at cycles the cached event proof cannot rule out (see the
    /// `event` module docs); with `ev == None` it executes every stepped
    /// cycle.
    fn step_inner(
        &mut self,
        mut hz: Option<&mut horizon::HorizonState>,
        mut ev: Option<&mut event::EventState>,
    ) {
        let now = self.now;
        self.profile.cycles_stepped += 1;
        let timing = profile::timing_enabled();
        let run_ctrl = match ev.as_deref_mut() {
            None => true,
            Some(ev) => ev.controller_due(now, &mut self.mem.controller, &self.mem.tracker),
        };
        if run_ctrl {
            let t0 = timing.then(std::time::Instant::now);
            self.profile.ctrl_cycles_stepped += 1;
            if ev.is_some() {
                self.profile.ctrl_events_fired += 1;
            }
            let out = self.mem.controller.tick(now, &self.mem.tracker);
            for req in &out.dropped {
                self.mem.on_dropped(req);
            }
            for comp in &out.completions {
                for w in self.mem.on_completion(comp, now) {
                    let c = w.core.index();
                    // A completion invalidates the core's idle classification
                    // (it sets `done_at` / releases a pending load), so the
                    // lag window is replayed before the core is mutated and
                    // the core re-enters lockstep at this exact cycle.
                    if let Some(hz) = hz.as_deref_mut() {
                        hz.wake(c, now, &mut self.cores[c], &mut self.profile);
                    }
                    self.cores[c].complete(w.token, now + 1);
                }
            }
            if self.mem.tracker.tick(now) {
                self.mem.on_interval_rollover();
            }
            if let Some(ev) = ev {
                ev.rearm(now, &mut self.mem.controller, &self.mem.tracker);
            }
            if let Some(t0) = t0 {
                self.profile.controller_ns += t0.elapsed().as_nanos() as u64;
            }
        } else {
            // E1: the cached proof covers this cycle — the controller
            // tick, the tracker tick, and the channel syncs are all
            // no-ops, so the whole phase is elided.
            self.profile.ctrl_cycles_skipped += 1;
        }
        let t1 = timing.then(std::time::Instant::now);
        for c in 0..self.cfg.cores {
            if let Some(hz) = hz.as_deref_mut() {
                if !hz.is_due(c, now) {
                    continue;
                }
                hz.catch_up(c, now, &mut self.cores[c], &mut self.profile);
            }
            self.cores[c].tick(now, &mut self.traces[c], &mut self.mem);
            self.profile.core_cycles_ticked += 1;
            if self.finish_cycle[c].is_none()
                && self.cores[c].stats().retired_instructions >= self.cfg.max_instructions
            {
                self.finish_cycle[c] = Some(now + 1);
                self.core_snapshots[c] = Some(*self.cores[c].stats());
                self.mem_snapshots[c] = Some(self.mem.pc[c]);
            }
            if let Some(hz) = hz.as_deref_mut() {
                hz.reclassify(c, now, &self.cores[c], self.mem.tracker.next_rollover());
            }
        }
        if let Some(t1) = t1 {
            self.profile.cores_ns += t1.elapsed().as_nanos() as u64;
        }
        self.now += 1;
    }

    /// Attempts one global jump; returns the number of cycles skipped (0
    /// when any component could make progress).
    ///
    /// Valid immediately after a `step_inner`, with `self.now` at the next
    /// unexecuted cycle. The jump fires only when *every* core lags past
    /// `now` (each lag window is a proven pure-stall span, I2) and lands on
    /// the minimum of the earliest due tick, the controller's next event
    /// ([`MemoryController::next_event`](padc_core::MemoryController::next_event),
    /// early but never late), the PAR rollover, and `limit`; the next step
    /// then executes the landing cycle exactly as a cycle-stepped run
    /// does. The cores' deferred replays are *not* applied here — their
    /// lag windows simply span the jump and are replayed at their next
    /// resync, which is what lets the skipped span be counted per-core
    /// exactly once.
    ///
    /// In event mode the cached (validated) bound replaces the fresh
    /// `next_event` call — same value, computed once (E4).
    fn try_horizon_jump(
        &mut self,
        hz: &horizon::HorizonState,
        ev: Option<&mut event::EventState>,
        limit: Cycle,
    ) -> u64 {
        let now = self.now;
        // A finished run is over at exactly this cycle; jumping further
        // would inflate `total_cycles` past the cycle-stepped run's.
        if now >= limit || self.finished() || !hz.all_lagging(now) {
            return 0;
        }
        // PAR rollovers re-derive drop thresholds, criticality, urgency and
        // rank; every other bound is only valid while PAR is stable.
        let mut target = self.mem.tracker.next_rollover().min(hz.min_due());
        match ev {
            Some(ev) => {
                ev.validate(now, &mut self.mem.controller, &self.mem.tracker);
                target = target.min(ev.ctrl_next());
            }
            None => {
                if let Some(e) = self.mem.controller.next_event(now, &self.mem.tracker) {
                    target = target.min(e);
                }
            }
        }
        target = target.min(limit);
        if target <= now {
            return 0;
        }
        let skipped = target - now;
        self.profile.ff_jumps += 1;
        self.profile.ff_cycles_skipped += skipped;
        self.profile.ctrl_cycles_skipped += skipped;
        self.now = target;
        skipped
    }

    /// True once every core has reached its instruction target.
    pub fn finished(&self) -> bool {
        self.finish_cycle.iter().all(Option::is_some)
    }

    /// Sets this system's fast-forward mode (defaults to
    /// [`fast_forward_mode_default`] at construction).
    pub fn set_fast_forward_mode(&mut self, mode: FastForwardMode) {
        self.ff_mode = mode;
    }

    /// This system's fast-forward mode.
    pub fn fast_forward_mode(&self) -> FastForwardMode {
        self.ff_mode
    }

    /// The hot-path profile accumulated so far (see [`crate::profile`]).
    pub fn profile(&self) -> &SimProfile {
        &self.profile
    }

    /// The next `PAR` interval rollover cycle (an explicit fast-forward
    /// stop event; exposed for the equivalence tests).
    pub fn next_accuracy_rollover(&self) -> Cycle {
        self.mem.tracker.next_rollover()
    }

    /// Runs the configured [`FastForwardMode`] loop until `now >= limit`,
    /// every core has finished, or `max_cycles` is reached. Jumps are
    /// capped at `limit` exactly as they are capped at `max_cycles`, so an
    /// unfinished system stops at precisely `limit` — the cycle a
    /// cycle-stepped loop stops at — with the same live state
    /// ([`System::accuracy`] included). Chunked calls followed by
    /// [`System::run`] produce the same report as a single `run`
    /// (`crates/sim/tests/fastforward.rs`).
    ///
    /// Unlike `run`, this neither harvests the end-of-run profile
    /// counters nor folds the run into an ambient profile accumulator.
    pub fn run_until(&mut self, limit: Cycle) {
        let limit = limit.min(self.cfg.max_cycles);
        let start = std::time::Instant::now();
        match self.ff_mode {
            FastForwardMode::Off => {
                while !self.finished() && self.now < limit {
                    self.step();
                }
            }
            FastForwardMode::Horizon => {
                let mut hz = horizon::HorizonState::new(self.cfg.cores, self.now);
                while !self.finished() && self.now < limit {
                    self.step_inner(Some(&mut hz), None);
                    self.try_horizon_jump(&hz, None, limit);
                }
                // Live (non-snapshotted) core stats must match a
                // cycle-exact run that stopped at the same cycle.
                hz.flush(self.now, &mut self.cores, &mut self.profile);
            }
            FastForwardMode::Event => {
                let mut hz = horizon::HorizonState::new(self.cfg.cores, self.now);
                let mut ev =
                    event::EventState::new(self.now, &mut self.mem.controller, &self.mem.tracker);
                while !self.finished() && self.now < limit {
                    self.step_inner(Some(&mut hz), Some(&mut ev));
                    self.try_horizon_jump(&hz, Some(&mut ev), limit);
                }
                hz.flush(self.now, &mut self.cores, &mut self.profile);
            }
        }
        self.profile.wall_ns += start.elapsed().as_nanos() as u64;
    }

    /// Runs to completion (every core reaches `max_instructions`, or the
    /// `max_cycles` safety cap triggers) and reports.
    pub fn run(&mut self) -> Report {
        self.run_until(self.cfg.max_cycles);
        let bs = self.mem.controller.buffer_stats();
        self.profile.owner_recomputes = bs.owner_recomputes;
        self.profile.owner_invalidations = bs.owner_invalidations;
        self.profile.owner_reuses = bs.owner_reuses;
        self.profile.owner_scan_entries = bs.owner_scan_entries;
        self.profile.dspatch_flips = self.mem.prefetchers.iter().map(|p| p.mode_flips()).sum();
        let rc = self.mem.controller.refresh_counters();
        self.profile.refresh_pulls = rc.pulls;
        self.profile.refresh_stall_cycles = rc.stall_cycles;
        profile::note_run(&self.profile);
        self.report()
    }

    /// Builds the report from current (or snapshotted) state.
    pub fn report(&self) -> Report {
        let per_core = (0..self.cfg.cores)
            .map(|c| {
                let stats = self.core_snapshots[c].unwrap_or(*self.cores[c].stats());
                let pcc = self.mem_snapshots[c].unwrap_or(self.mem.pc[c]);
                let cycles = self.finish_cycle[c].unwrap_or(self.now.max(1));
                CoreReport {
                    benchmark: self.benchmark_names[c].clone(),
                    instructions: stats.retired_instructions,
                    cycles,
                    loads: stats.retired_loads,
                    window_stall_cycles: stats.window_stall_cycles,
                    l2_accesses: pcc.l2_accesses,
                    l2_misses: pcc.l2_misses,
                    prefetches_sent: pcc.pf_sent,
                    prefetches_used: pcc.pf_used,
                    prefetches_dropped: pcc.pf_dropped,
                    prefetches_filtered: pcc.pf_filtered,
                    prefetches_no_space: pcc.pf_no_space,
                    runahead_episodes: stats.runahead_episodes,
                    dispatch_window_full_cycles: stats.dispatch_window_full_cycles,
                    dispatch_retry_cycles: stats.dispatch_retry_cycles,
                    dispatch_dep_cycles: stats.dispatch_dep_cycles,
                    traffic: Traffic {
                        demand: pcc.demand_traffic,
                        pref_useful: pcc.useful_pbit + pcc.promotions,
                        pref_useless: pcc.pref_filled.saturating_sub(pcc.useful_pbit),
                    },
                    rbhu_demand_hits: pcc.rbhu_demand_hits,
                    rbhu_demand_total: pcc.rbhu_demand_total,
                    rbhu_useful_hits: pcc.rbhu_useful_hits,
                    rbhu_useful_total: pcc.rbhu_useful_total,
                }
            })
            .collect();
        // Fold still-unused prefetched lines into the useless histogram.
        let mut hist_useless = self.mem.hist_useless;
        for bucket in self.mem.hist_pending.values() {
            hist_useless[*bucket as usize] += 1;
        }
        Report {
            per_core,
            total_cycles: self.now,
            controller: self.mem.controller.stats().clone(),
            channels: self
                .mem
                .controller
                .channel_stats()
                .into_iter()
                .cloned()
                .collect(),
            pf_service_hist_useful: self.mem.hist_useful,
            pf_service_hist_useless: hist_useless,
            par_samples: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use padc_core::SchedulingPolicy;
    use padc_workloads::profiles;

    use super::*;

    fn quick_cfg(policy: SchedulingPolicy) -> SimConfig {
        let mut cfg = SimConfig::single_core(policy);
        cfg.max_instructions = 30_000;
        cfg.max_cycles = 20_000_000;
        cfg
    }

    #[test]
    fn streaming_benchmark_completes_and_prefetches_are_accurate() {
        let mut cfg = quick_cfg(SchedulingPolicy::DemandFirst);
        cfg.max_instructions = 100_000; // long enough to amortize the
                                        // in-flight prefetch tail
        let mut sys = System::new(cfg, vec![profiles::libquantum()]);
        let r = sys.run();
        let c = &r.per_core[0];
        assert!(c.instructions >= 100_000);
        assert!(c.ipc() > 0.0);
        assert!(c.prefetches_sent > 100, "sent {}", c.prefetches_sent);
        assert!(
            c.acc() > 0.8,
            "streaming accuracy should be high: {}",
            c.acc()
        );
    }

    #[test]
    fn unfriendly_benchmark_has_low_accuracy() {
        let mut cfg = quick_cfg(SchedulingPolicy::DemandFirst);
        cfg.max_instructions = 100_000;
        let mut sys = System::new(cfg, vec![profiles::omnetpp()]);
        let r = sys.run();
        let c = &r.per_core[0];
        assert!(c.prefetches_sent > 50, "sent {}", c.prefetches_sent);
        assert!(
            c.acc() < 0.4,
            "short runs should be inaccurate: {}",
            c.acc()
        );
    }

    #[test]
    fn no_prefetch_run_sends_no_prefetches() {
        let cfg = quick_cfg(SchedulingPolicy::DemandFirst).without_prefetching();
        let mut sys = System::new(cfg, vec![profiles::libquantum()]);
        let r = sys.run();
        assert_eq!(r.per_core[0].prefetches_sent, 0);
        assert_eq!(r.traffic().pref_useful + r.traffic().pref_useless, 0);
        assert!(r.traffic().demand > 0);
    }

    #[test]
    fn padc_drops_useless_prefetches() {
        // Long enough for the measured accuracy to converge to omnetpp's
        // genuinely low value, which arms the aggressive drop thresholds.
        let mut cfg = quick_cfg(SchedulingPolicy::Padc);
        cfg.max_instructions = 150_000;
        let mut sys = System::new(cfg, vec![profiles::omnetpp()]);
        let r = sys.run();
        assert!(
            r.per_core[0].prefetches_dropped > 0,
            "APD should fire on omnetpp"
        );
    }

    #[test]
    fn multicore_run_reports_all_cores() {
        let mut cfg = SimConfig::new(2, SchedulingPolicy::Padc);
        cfg.max_instructions = 15_000;
        let mut sys = System::new(cfg, vec![profiles::libquantum(), profiles::milc()]);
        let r = sys.run();
        assert_eq!(r.per_core.len(), 2);
        assert!(r.per_core.iter().all(|c| c.instructions >= 15_000));
        assert!(r.rbhu() > 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sys = System::new(quick_cfg(SchedulingPolicy::Padc), vec![profiles::milc()]);
            sys.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.per_core, b.per_core);
    }
}
