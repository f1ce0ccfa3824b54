//! Batched Mimic inference for the PDES compose mode.
//!
//! A composed simulation carries one Mimic per non-observable cluster, and
//! every boundary packet costs an LSTM forward step. The scalar
//! [`LearnedMimic`](crate::mimic::LearnedMimic) pays that cost packet by
//! packet, re-streaming the weight matrices from memory each time. The
//! [`BatchedMimicFleet`] instead serves *all* Mimic'ed clusters of a
//! simulation behind the engine's [`BatchClusterModel`] aggregation point:
//! boundary packets queued across an event window are replayed through
//! [`SeqModel::step_lanes`](mimic_ml::model::SeqModel::step_lanes), which
//! streams each weight matrix once per round no matter how many clusters
//! it feeds.
//!
//! Why batching is across clusters, not across time: each (cluster,
//! direction) *lane* owns a recurrent `ModelState` and a
//! [`FeatureExtractor`] whose congestion estimate feeds back from each
//! prediction into the next packet's features. Two packets of one lane are
//! therefore serially dependent and can never share a forward pass. Lanes
//! of *different* clusters are independent but share weights — the batch
//! dimension this module exploits. Processing is round-based: each round
//! takes the head item of every active lane, runs one weight-shared
//! forward, and decodes per lane; rounds repeat until every lane's queue
//! drains. Per-lane item order — and with it every feature, state update,
//! and RNG draw — is identical no matter how the engine chunked the item
//! stream into flushes, which is what makes sequential and partitioned
//! composed runs bit-identical.
//!
//! Ordering invariants maintained here (locked down by the equivalence and
//! property suites):
//!
//! * **Chunking invariance** — verdicts depend only on each lane's item
//!   order, never on flush boundaries.
//! * **Per-flow FIFO** — a flow's exit times are monotone within a lane: a
//!   later packet never exits before an earlier one, even when the model
//!   predicts it a smaller latency (queues don't reorder a flow; §5.1's
//!   instrumentation junctures preserve this too).
//! * **Causality** — every verdict's exit time is at least
//!   [`latency_floor`](BatchClusterModel::latency_floor) past its enqueue
//!   time, the engine's license to defer inference.
//!
//! # Feeder backlogs and the feeder helper
//!
//! Feeder packets only advance a lane's LSTM state; their output is
//! discarded (paper §6). That state-only step is the largest single cost
//! of a composed run, and it depends on nothing but the lane's own
//! feature rows. So [`BatchClusterModel::on_wake`] does only the order-
//! and RNG-sensitive part on the event thread — `Feeder::fire` and
//! `FeatureExtractor::extract_into` — and appends each extracted row to
//! the lane's *backlog*. The rows are applied later, in per-lane FIFO
//! order, by whichever thread gets to them first:
//!
//! * the fleet's helper thread ([`FeederHelper::On`]), which sweeps the
//!   backlogs as they fill;
//! * the event thread itself ("help-first"), whenever it needs the lane's
//!   state — a flush touching the lane, `save_state` — or the backlog
//!   reaches `BACKLOG_CAP` rows, which bounds memory when the helper
//!   falls behind. Without a helper the event thread applies each wake's
//!   rows right away.
//!
//! A lane's state only ever advances by its backlog's rows, oldest first:
//! the event thread applies rows under the lane's lock; the helper claims
//! the rows queued at that moment, steps a private copy of the state
//! outside the lock, and commits the copy only if its claim is still in
//! place. Whenever the event thread needs the lane it cancels any claim
//! and applies the whole backlog itself, so it never waits on helper
//! progress, and a cancelled helper result is simply dropped. The lane
//! therefore sees exactly the operation sequence of stepping each feeder
//! packet inline: its rows in order, then the flush or snapshot that
//! needed the state. Estimates, snapshots and digests are bit-identical
//! with the helper on or off, at any core count, however far behind the
//! helper runs.

use crate::drift::DriftMonitor;
use crate::internal_model::InternalModel;
use crate::mimic::{load_model_state, packet_view, save_model_state, DecisionMode, TrainedMimic};
use dcn_sim::mimic::{BatchClusterModel, BoundaryDir, BoundaryItem, Verdict};
use dcn_sim::packet::FlowId;
use dcn_sim::rng::SplitMix64;
use dcn_sim::snapshot::{SnapReader, SnapWriter, SnapshotError};
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::{FatTree, FatTreeParams};
use mimic_ml::loss::sigmoid;
use mimic_ml::model::{BatchScratch, ModelState, OUTPUTS, OUT_DROP, OUT_ECN, OUT_LATENCY};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::features::FeatureExtractor;
use crate::feeder::Feeder;

/// Feeder rows a lane's backlog may hold before the event thread applies
/// them itself. Bounds backlog memory at `lanes × BACKLOG_CAP` rows.
const BACKLOG_CAP: usize = 128;

/// Rows the event thread queues before it wakes a parked helper (about
/// 0.1 ms of helper work at hidden size 24). The helper never spins while
/// idle: on a host whose second core is shared, an idle spin would take
/// time from the event thread, so the helper parks and each wake-up must
/// buy enough work to pay for its system call.
const WAKE_ROWS: usize = 256;

/// Whether a fleet runs a helper thread for its feeder backlogs (see the
/// module docs). The choice changes wall-clock time only, never a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeederHelper {
    /// The event thread applies every backlog itself.
    Off,
    /// One helper thread applies backlogs as they fill; the event thread
    /// still applies whatever is left when it needs a lane's state.
    On,
}

impl FeederHelper {
    /// [`FeederHelper::On`] exactly when the host has more cores than the
    /// run has PDES partitions, so no LP's event thread ever competes with
    /// a helper for a core.
    pub fn for_partitions(partitions: usize) -> FeederHelper {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores > partitions {
            FeederHelper::On
        } else {
            FeederHelper::Off
        }
    }
}

/// `LaneInner::claimed` while the event thread has moved the lane's state
/// into a flush slab.
const CHECKED_OUT: usize = usize::MAX;

/// One lane's recurrent state and its feeder backlog, shared between the
/// event thread and the feeder helper. The helper holds the lock only for
/// bookkeeping, never while it computes, so the event thread never waits
/// on helper progress.
struct LaneCell {
    inner: Mutex<LaneInner>,
    /// `inner.rows` in rows, readable without the lock (the helper's scan).
    pending: AtomicUsize,
}

struct LaneInner {
    /// The lane's LSTM state, advanced by every feeder row already removed
    /// from `rows`.
    state: ModelState,
    /// Extracted feeder rows not yet applied, oldest first, `width`
    /// floats each.
    rows: Vec<f32>,
    /// How many rows at the front of `rows` the helper is applying to its
    /// own copy of `state` (0: none, [`CHECKED_OUT`]: the event thread
    /// holds the state). The helper commits its copy only if the claim is
    /// still in place; the event thread cancels it whenever it needs the
    /// lane.
    claimed: usize,
}

/// Everything the fleet shares with its feeder helper.
struct FeederShared {
    bundles: Vec<TrainedMimic>,
    /// `assign[li]` = bundle index of lane `li`.
    assign: Vec<usize>,
    /// `cells[0]` ingress lanes, `cells[1]` egress lanes.
    cells: [Vec<LaneCell>; 2],
    /// Feature width shared by every bundle.
    width: usize,
    /// Bumped every `WAKE_ROWS` queued rows; a helper that found no work
    /// parks until it moves.
    queued: AtomicU64,
    /// The helper is parked (or about to park) and wants an unpark.
    sleeping: AtomicBool,
    stop: AtomicBool,
    /// Set when the helper panicked, so the event thread fails fast.
    failed: AtomicBool,
    /// Rows applied by the helper / by the event thread.
    helper_steps: AtomicU64,
    inline_steps: AtomicU64,
}

impl FeederShared {
    fn model(&self, dir: usize, li: usize) -> &InternalModel {
        let b = &self.bundles[self.assign[li]];
        if dir == 0 {
            &b.ingress
        } else {
            &b.egress
        }
    }

    /// Queue one wake's rows on lane (`dir`, `li`); returns the backlog
    /// length in rows.
    fn push_rows(&self, dir: usize, li: usize, rows: &[f32]) -> usize {
        let cell = &self.cells[dir][li];
        let mut inner = lock(&cell.inner);
        inner.rows.extend_from_slice(rows);
        let n = inner.rows.len() / self.width;
        cell.pending.store(n, Ordering::Relaxed);
        n
    }

    /// The event thread's access to a lane: cancel any helper claim and
    /// apply the whole backlog inline, so the returned state has seen every
    /// queued feeder row.
    fn lane_state(&self, dir: usize, li: usize) -> MutexGuard<'_, LaneInner> {
        if self.failed.load(Ordering::Relaxed) {
            helper_panicked();
        }
        let cell = &self.cells[dir][li];
        let mut inner = lock(&cell.inner);
        inner.claimed = 0;
        if !inner.rows.is_empty() {
            let LaneInner { state, rows, .. } = &mut *inner;
            let model = self.model(dir, li);
            for x in rows.chunks_exact(self.width) {
                model.update_only(x, state);
            }
            let n = (rows.len() / self.width) as u64;
            rows.clear();
            cell.pending.store(0, Ordering::Relaxed);
            self.inline_steps.fetch_add(n, Ordering::Relaxed);
        }
        inner
    }

    /// Helper side: claim lane (`dir`, `li`)'s backlog, apply it to a copy
    /// of the state outside the lock, and commit the copy unless the event
    /// thread took the lane over meanwhile. Returns the rows committed.
    fn help_lane(&self, dir: usize, li: usize, copy: &mut ModelState, rows: &mut Vec<f32>) -> u64 {
        let cell = &self.cells[dir][li];
        let n = {
            // Busy means the event thread is applying this backlog itself.
            let Ok(mut inner) = cell.inner.try_lock() else {
                return 0;
            };
            if inner.claimed != 0 || inner.rows.is_empty() {
                return 0;
            }
            copy_state(copy, &inner.state);
            rows.clear();
            rows.extend_from_slice(&inner.rows);
            let n = rows.len() / self.width;
            inner.claimed = n;
            n
        };
        let model = self.model(dir, li);
        for x in rows.chunks_exact(self.width) {
            model.update_only(x, copy);
        }
        let mut inner = lock(&cell.inner);
        if inner.claimed != n {
            return 0;
        }
        copy_state(&mut inner.state, copy);
        inner.rows.drain(..n * self.width);
        inner.claimed = 0;
        cell.pending.store(inner.rows.len() / self.width, Ordering::Relaxed);
        n as u64
    }

    /// The helper thread's loop: sweep every lane with a backlog for as
    /// long as sweeps find work, then park until `queued` moves.
    fn run_helper(&self) {
        let mut copies: [Vec<ModelState>; 2] = [0, 1].map(|d| {
            (0..self.assign.len())
                .map(|li| self.model(d, li).init_state())
                .collect()
        });
        let mut rows = Vec::with_capacity(2 * BACKLOG_CAP * self.width);
        while !self.stop.load(Ordering::Acquire) {
            let seen = self.queued.load(Ordering::SeqCst);
            let mut steps = 0;
            for (d, cells) in self.cells.iter().enumerate() {
                for (li, cell) in cells.iter().enumerate() {
                    if cell.pending.load(Ordering::Relaxed) > 0 {
                        steps += self.help_lane(d, li, &mut copies[d][li], &mut rows);
                    }
                }
            }
            if steps > 0 {
                self.helper_steps.fetch_add(steps, Ordering::Relaxed);
                continue;
            }
            // Announce the park before re-checking `queued`; `notify`
            // bumps `queued` before reading `sleeping`, so one of the two
            // sides always sees the other. The timeout is a backstop only.
            self.sleeping.store(true, Ordering::SeqCst);
            if self.queued.load(Ordering::SeqCst) == seen && !self.stop.load(Ordering::SeqCst) {
                std::thread::park_timeout(std::time::Duration::from_millis(10));
            }
            self.sleeping.store(false, Ordering::SeqCst);
        }
    }
}

/// Copy `src`'s recurrent state into `dst` (same model shape) without
/// allocating. The gate scratch is rewritten by every step, so it carries
/// no state.
fn copy_state(dst: &mut ModelState, src: &ModelState) {
    for (d, s) in dst.layers.iter_mut().zip(&src.layers) {
        d.h.data.copy_from_slice(&s.h.data);
        d.c.data.copy_from_slice(&s.c.data);
    }
}

/// Lock a lane. A poisoned lock means the helper panicked while it held
/// the lane.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|_| helper_panicked())
}

fn helper_panicked() -> ! {
    panic!("the feeder helper thread panicked; lane states are lost")
}

/// The running helper thread of a fleet; dropping it stops and joins the
/// thread.
struct HelperThread {
    shared: Arc<FeederShared>,
    handle: Option<JoinHandle<()>>,
}

impl HelperThread {
    fn spawn(shared: Arc<FeederShared>) -> HelperThread {
        let theirs = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("mimic-feeder".into())
            .spawn(move || {
                let run = std::panic::AssertUnwindSafe(|| theirs.run_helper());
                if std::panic::catch_unwind(run).is_err() {
                    theirs.failed.store(true, Ordering::SeqCst);
                }
            })
            .expect("spawn feeder helper thread");
        HelperThread {
            shared,
            handle: Some(handle),
        }
    }

    /// Tell the helper that new rows are queued.
    fn notify(&self) {
        self.shared.queued.fetch_add(1, Ordering::SeqCst);
        if self.shared.sleeping.load(Ordering::SeqCst) {
            if let Some(h) = &self.handle {
                h.thread().unpark();
            }
        }
    }
}

impl Drop for HelperThread {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            // A helper panic was already reported through `failed`.
            let _ = h.join();
        }
    }
}

/// One (cluster, direction) inference lane.
struct Lane {
    fx: FeatureExtractor,
    /// Per-lane decision stream. The scalar Mimic shares one RNG across
    /// both directions of a cluster; the fleet needs the draws to depend
    /// only on this lane's item order, so each lane gets its own stream.
    rng: SplitMix64,
    /// Last predicted exit time per flow (FIFO clamp). Entries whose exit
    /// precedes the current flush's oldest enqueue can no longer clamp
    /// anything and are evicted in place.
    last_exit: HashMap<FlowId, SimTime>,
    /// Ingress lanes score live features against the training envelope.
    monitor: Option<DriftMonitor>,
    /// Item indices (into the flush's `items`) queued for this lane.
    queue: Vec<u32>,
    cursor: usize,
}

/// One direction's lanes across all served clusters (lane `i` belongs to
/// `clusters[i]`). The lanes' model states live in [`FeederShared`];
/// `states` is the dense slab a flush moves them into so the lane kernel
/// can gather/scatter them.
struct DirFleet {
    lanes: Vec<Lane>,
    states: Vec<ModelState>,
    feeders: Vec<Feeder>,
}

/// A [`BatchClusterModel`] serving every Mimic'ed cluster of one composed
/// simulation. Homogeneous compositions share a single bundle across all
/// lanes; heterogeneous ones group lanes by bundle, batching within each
/// group (lanes can only share a forward pass when they share weights).
pub struct BatchedMimicFleet {
    /// Bundles, lane states and feeder backlogs, shared with the helper.
    shared: Arc<FeederShared>,
    helper: Option<HelperThread>,
    /// Lane indices per bundle group, in stable lane order.
    groups: Vec<Vec<usize>>,
    clusters: Vec<u32>,
    /// Dense cluster-id → lane-index map (`u32::MAX` = not served).
    slot: Vec<u32>,
    topo: FatTree,
    mode: DecisionMode,
    floor: SimDuration,
    ingress: DirFleet,
    egress: DirFleet,
    // Reused flush buffers (steady state allocates nothing).
    feats: Vec<f32>,
    feat_buf: Vec<f32>,
    /// One wake's feeder rows per direction, appended to the backlog in
    /// one locked step.
    wake_rows: [Vec<f32>; 2],
    /// Largest backlog seen, in rows (`mimic.feeder.backlog.max`).
    backlog_max: u64,
    /// Rows queued since the helper was last notified.
    unnotified: usize,
    /// Backlog length at which `on_wake` applies a lane's rows itself:
    /// `BACKLOG_CAP` with a helper, 1 without, so a helper-less fleet
    /// steps every wake's rows right away. Deferring them would only
    /// bunch the work into bursts, which PDES barriers turn into idle
    /// time on the other partitions.
    drain_at: usize,
    sel: Vec<usize>,
    rows: Vec<u32>,
    out: Vec<[f32; OUTPUTS]>,
    raw: Vec<[f32; OUTPUTS]>,
    scratch: BatchScratch,
    /// Counters for instrumentation/tests.
    pub packets_seen: u64,
    pub feeder_packets: u64,
    /// Weight-shared forward rounds executed (one per occupied round of
    /// [`SeqModel::step_lanes`](mimic_ml::model::SeqModel::step_lanes)).
    pub rounds: u64,
    /// How many lanes each round fed — the realized batch dimension. A
    /// mean near 1 means the fleet degenerated to scalar stepping.
    pub lane_occupancy: dcn_obs::Hist,
}

impl BatchedMimicFleet {
    /// Homogeneous fleet: every cluster in `cluster_seeds` runs `bundle`.
    /// Each entry pairs a cluster index with its Mimic seed (the same
    /// per-cluster seeds the scalar composition derives), keeping feeder
    /// streams decorrelated across clusters and identical to the scalar
    /// composition's.
    pub fn new(
        bundle: TrainedMimic,
        topo_params: FatTreeParams,
        n_clusters: u32,
        cluster_seeds: &[(u32, u64)],
        helper: FeederHelper,
    ) -> BatchedMimicFleet {
        let with_bundle: Vec<(u32, usize, u64)> =
            cluster_seeds.iter().map(|&(c, s)| (c, 0, s)).collect();
        BatchedMimicFleet::new_heterogeneous(
            vec![bundle],
            topo_params,
            n_clusters,
            &with_bundle,
            helper,
        )
    }

    /// Heterogeneous fleet: each `(cluster, bundle_index, seed)` entry
    /// binds a cluster to one of `bundles`. All bundles must agree on the
    /// feature width (they describe the same cluster shape).
    pub fn new_heterogeneous(
        bundles: Vec<TrainedMimic>,
        topo_params: FatTreeParams,
        n_clusters: u32,
        cluster_assign: &[(u32, usize, u64)],
        helper: FeederHelper,
    ) -> BatchedMimicFleet {
        assert!(!bundles.is_empty(), "fleet needs at least one bundle");
        assert!(!cluster_assign.is_empty(), "fleet needs at least one cluster");
        let width = bundles[0].feature_cfg.width();
        for b in &bundles {
            assert_eq!(b.feature_cfg.width(), width, "bundles disagree on feature width");
        }

        let n_lanes = cluster_assign.len();
        let mut clusters = Vec::with_capacity(n_lanes);
        let mut assign = Vec::with_capacity(n_lanes);
        let mut slot = vec![u32::MAX; n_clusters as usize];
        let mut groups = vec![Vec::new(); bundles.len()];
        let mut cells: [Vec<LaneCell>; 2] = [Vec::new(), Vec::new()];
        let mut make_dir = |dir: BoundaryDir| {
            let mut lanes = Vec::with_capacity(n_lanes);
            let mut states = Vec::with_capacity(n_lanes);
            let mut feeders = Vec::with_capacity(n_lanes);
            for &(_, g, seed) in cluster_assign {
                let bundle = &bundles[g];
                let fc = bundle.feature_cfg;
                let (model, fit, tag) = match dir {
                    BoundaryDir::Ingress => (&bundle.ingress, &bundle.feeder.ingress, 0x1u64),
                    BoundaryDir::Egress => (&bundle.egress, &bundle.feeder.egress, 0x2u64),
                };
                lanes.push(Lane {
                    fx: FeatureExtractor::new(fc),
                    rng: SplitMix64::derive(seed, 0x4D49_0000 | tag),
                    last_exit: HashMap::new(),
                    monitor: match dir {
                        BoundaryDir::Ingress => {
                            bundle.envelope.clone().map(DriftMonitor::new)
                        }
                        BoundaryDir::Egress => None,
                    },
                    queue: Vec::new(),
                    cursor: 0,
                });
                states.push(model.init_state());
                cells[dir as usize].push(LaneCell {
                    inner: Mutex::new(LaneInner {
                        state: model.init_state(),
                        rows: Vec::with_capacity(2 * BACKLOG_CAP * width),
                        claimed: 0,
                    }),
                    pending: AtomicUsize::new(0),
                });
                feeders.push(Feeder::new(
                    fit.clone(),
                    n_clusters,
                    fc.racks_per_cluster,
                    fc.hosts_per_rack,
                    fc.aggs_per_cluster,
                    fc.cores,
                    seed ^ tag,
                ));
            }
            DirFleet { lanes, states, feeders }
        };
        let ingress = make_dir(BoundaryDir::Ingress);
        let egress = make_dir(BoundaryDir::Egress);
        for (li, &(c, g, _)) in cluster_assign.iter().enumerate() {
            assert!(c < n_clusters, "cluster {c} out of range");
            assert!(g < bundles.len(), "bundle index {g} out of range");
            assert_eq!(slot[c as usize], u32::MAX, "cluster {c} assigned twice");
            slot[c as usize] = li as u32;
            clusters.push(c);
            assign.push(g);
            groups[g].push(li);
        }

        // Lower bound on any predicted latency: the smallest value either
        // discretizer can recover, across every bundle.
        let mut floor_s = f64::INFINITY;
        for b in &bundles {
            floor_s = floor_s.min(b.ingress.disc.recover(0.0));
            floor_s = floor_s.min(b.egress.disc.recover(0.0));
        }
        let floor = SimDuration::from_secs_f64(floor_s.max(1e-6));

        let shared = Arc::new(FeederShared {
            bundles,
            assign,
            cells,
            width,
            queued: AtomicU64::new(0),
            sleeping: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            helper_steps: AtomicU64::new(0),
            inline_steps: AtomicU64::new(0),
        });
        let (helper, drain_at) = match helper {
            FeederHelper::On => (Some(HelperThread::spawn(Arc::clone(&shared))), BACKLOG_CAP),
            FeederHelper::Off => (None, 1),
        };
        BatchedMimicFleet {
            shared,
            helper,
            groups,
            slot,
            topo: FatTree::new(topo_params),
            mode: DecisionMode::Sample,
            floor,
            ingress,
            egress,
            feats: vec![0.0; n_lanes * width],
            feat_buf: Vec::with_capacity(width),
            wake_rows: std::array::from_fn(|_| Vec::with_capacity(BACKLOG_CAP * width)),
            backlog_max: 0,
            unnotified: 0,
            drain_at,
            sel: vec![0; n_lanes],
            rows: vec![0; n_lanes],
            out: vec![[0.0; OUTPUTS]; n_lanes],
            raw: Vec::new(),
            scratch: BatchScratch::new(),
            clusters,
            packets_seen: 0,
            feeder_packets: 0,
            rounds: 0,
            lane_occupancy: dcn_obs::Hist::default(),
        }
    }

    /// Switch decision mode (default: [`DecisionMode::Sample`]).
    pub fn with_mode(mut self, mode: DecisionMode) -> BatchedMimicFleet {
        self.mode = mode;
        self
    }

    /// Override every ingress drift monitor's window size. No-op for lanes
    /// whose bundle carries no envelope.
    pub fn with_drift_window(mut self, window: usize) -> BatchedMimicFleet {
        for (li, lane) in self.ingress.lanes.iter_mut().enumerate() {
            lane.monitor = self.shared.bundles[self.shared.assign[li]]
                .envelope
                .clone()
                .map(|env| DriftMonitor::with_window(env, window));
        }
        self
    }

    /// Raw model outputs (`[latency, drop_logit, ecn_logit]`) of the last
    /// flush, one row per item in item order. RNG-free, so equivalence
    /// suites can compare them bit-for-bit against scalar stepping.
    pub fn raw_outputs(&self) -> &[[f32; OUTPUTS]] {
        &self.raw
    }

    /// Feed one boundary packet through its lane's feature extractor and
    /// ingress drift monitor *without* running inference. The adaptive
    /// fleet calls this for clusters served below the Mimic tier: the
    /// promotion decision needs live drift signal even while the LSTM is
    /// dormant, and the feature path is deterministic in the lane's item
    /// order just like the full inference path.
    pub fn observe_boundary(&mut self, item: &BoundaryItem) {
        let BatchedMimicFleet {
            topo,
            ingress,
            egress,
            feat_buf,
            slot,
            ..
        } = self;
        let li = slot[item.cluster as usize];
        assert!(li != u32::MAX, "item for unserved cluster {}", item.cluster);
        let fleet = match item.dir {
            BoundaryDir::Ingress => ingress,
            BoundaryDir::Egress => egress,
        };
        let lane = &mut fleet.lanes[li as usize];
        let view = packet_view(topo, item.dir, &item.pkt, item.enqueued_at);
        lane.fx.extract_into(&view, feat_buf);
        if item.dir == BoundaryDir::Ingress {
            if let Some(mon) = &mut lane.monitor {
                mon.observe(feat_buf);
            }
        }
    }

    /// Advance a cluster's feeder streams to `now` without touching the
    /// frozen model/feature state. At the Flow tier the wake cadence and
    /// the feeders' random streams must stay aligned with what the Mimic
    /// tier would have consumed (so a later promotion re-joins the same
    /// deterministic schedule), but the LSTM warm-up updates — the
    /// expensive part of [`BatchClusterModel::on_wake`] — are skipped.
    pub fn advance_feeders(&mut self, cluster: u32, now: SimTime) {
        let li = self.slot[cluster as usize] as usize;
        loop {
            let mut fired = false;
            if self.ingress.feeders[li].fire(now).is_some() {
                self.feeder_packets += 1;
                fired = true;
            }
            if self.egress.feeders[li].fire(now).is_some() {
                self.feeder_packets += 1;
                fired = true;
            }
            if !fired {
                break;
            }
        }
    }

    fn dir_fleet(&mut self, dir: BoundaryDir) -> &mut DirFleet {
        match dir {
            BoundaryDir::Ingress => &mut self.ingress,
            BoundaryDir::Egress => &mut self.egress,
        }
    }

    /// Replay one direction's queued items in rounds (head item per active
    /// lane per round), one bundle group at a time.
    fn process_dir(&mut self, dir: BoundaryDir, items: &[BoundaryItem], verdicts: &mut [Verdict]) {
        let BatchedMimicFleet {
            shared,
            groups,
            topo,
            mode,
            floor,
            ingress,
            egress,
            feats,
            feat_buf,
            sel,
            rows,
            out,
            raw,
            scratch,
            rounds,
            lane_occupancy,
            ..
        } = self;
        let fleet = match dir {
            BoundaryDir::Ingress => ingress,
            BoundaryDir::Egress => egress,
        };
        for (g, group) in groups.iter().enumerate() {
            let model: &InternalModel = match dir {
                BoundaryDir::Ingress => &shared.bundles[g].ingress,
                BoundaryDir::Egress => &shared.bundles[g].egress,
            };
            let width = shared.width;
            loop {
                // Gather: head item of every lane with work left.
                let mut n = 0;
                for &li in group {
                    let lane = &mut fleet.lanes[li];
                    let Some(&item_idx) = lane.queue.get(lane.cursor) else {
                        continue;
                    };
                    lane.cursor += 1;
                    let item = &items[item_idx as usize];
                    let view = packet_view(topo, dir, &item.pkt, item.enqueued_at);
                    lane.fx.extract_into(&view, feat_buf);
                    if dir == BoundaryDir::Ingress {
                        if let Some(mon) = &mut lane.monitor {
                            mon.observe(feat_buf);
                        }
                    }
                    feats[n * width..(n + 1) * width].copy_from_slice(feat_buf);
                    sel[n] = li;
                    rows[n] = item_idx;
                    n += 1;
                }
                if n == 0 {
                    break;
                }
                *rounds += 1;
                lane_occupancy.observe(n as u64);
                // One weight-shared forward for the whole round.
                model.model.step_lanes(
                    &feats[..n * width],
                    n,
                    &mut fleet.states,
                    &sel[..n],
                    &mut out[..n],
                    scratch,
                );
                // Decode per lane — the exact arithmetic of
                // `InternalModel::predict` + `LearnedMimic::on_packet`.
                for r in 0..n {
                    let item_idx = rows[r] as usize;
                    let item = &items[item_idx];
                    let o = out[r];
                    raw[item_idx] = o;
                    let latency_norm = o[OUT_LATENCY].clamp(0.0, 1.0);
                    let latency_s = model.disc.recover(latency_norm);
                    let p_drop = sigmoid(o[OUT_DROP]) as f64;
                    let p_ecn = sigmoid(o[OUT_ECN]) as f64;
                    let lane = &mut fleet.lanes[sel[r]];
                    if decide(&mut lane.rng, *mode, p_drop) {
                        lane.fx.observe_outcome(1.0, true);
                        verdicts[item_idx] = Verdict::Drop;
                        continue;
                    }
                    let mark_ce = item.pkt.ecn.is_capable() && decide(&mut lane.rng, *mode, p_ecn);
                    lane.fx.observe_outcome(latency_norm, false);
                    let latency =
                        SimDuration::from_secs_f64(latency_s.max(1e-6)).max(*floor);
                    let mut exit = item.enqueued_at + latency;
                    // FIFO clamp: a flow never exits earlier than its
                    // previous packet did (equal times are delivered in
                    // packet-id order by the engine's event tags).
                    if let Some(&prev) = lane.last_exit.get(&item.pkt.flow) {
                        if prev > exit {
                            exit = prev;
                        }
                    }
                    lane.last_exit.insert(item.pkt.flow, exit);
                    verdicts[item_idx] = Verdict::Deliver {
                        latency: SimDuration(exit.0 - item.enqueued_at.0),
                        mark_ce,
                    };
                }
            }
        }
    }
}

fn decide(rng: &mut SplitMix64, mode: DecisionMode, p: f64) -> bool {
    match mode {
        DecisionMode::Sample => rng.bernoulli(p),
        DecisionMode::Threshold => p > 0.5,
    }
}

impl BatchClusterModel for BatchedMimicFleet {
    fn clusters(&self) -> &[u32] {
        &self.clusters
    }

    fn infer_batch(&mut self, items: &[BoundaryItem], verdicts: &mut Vec<Verdict>) {
        self.packets_seen += items.len() as u64;
        verdicts.clear();
        verdicts.resize(items.len(), Verdict::Drop);
        self.raw.clear();
        self.raw.resize(items.len(), [0.0; OUTPUTS]);
        // Bucket items into their lanes, preserving stream order per lane.
        for fleet in [&mut self.ingress, &mut self.egress] {
            for lane in &mut fleet.lanes {
                lane.queue.clear();
                lane.cursor = 0;
            }
        }
        for (i, item) in items.iter().enumerate() {
            let li = self.slot[item.cluster as usize];
            assert!(li != u32::MAX, "item for unserved cluster {}", item.cluster);
            let fleet = self.dir_fleet(item.dir);
            fleet.lanes[li as usize].queue.push(i as u32);
        }
        // Evict FIFO entries that can no longer clamp anything: their exit
        // precedes every enqueue this flush will see (per-lane item order
        // is monotone in enqueue time).
        for fleet in [&mut self.ingress, &mut self.egress] {
            for lane in &mut fleet.lanes {
                if let Some(&first) = lane.queue.first() {
                    let oldest = items[first as usize].enqueued_at;
                    lane.last_exit.retain(|_, exit| *exit > oldest);
                }
            }
        }
        // Move the state of every lane this flush touches into the flush
        // slab, applying its feeder backlog first. The helper leaves
        // checked-out lanes alone.
        for (d, fleet) in [&mut self.ingress, &mut self.egress].into_iter().enumerate() {
            for (li, lane) in fleet.lanes.iter().enumerate() {
                if !lane.queue.is_empty() {
                    let mut inner = self.shared.lane_state(d, li);
                    inner.claimed = CHECKED_OUT;
                    std::mem::swap(&mut inner.state, &mut fleet.states[li]);
                }
            }
        }
        self.process_dir(BoundaryDir::Ingress, items, verdicts);
        self.process_dir(BoundaryDir::Egress, items, verdicts);
        for (d, fleet) in [&mut self.ingress, &mut self.egress].into_iter().enumerate() {
            for (li, lane) in fleet.lanes.iter().enumerate() {
                if !lane.queue.is_empty() {
                    let mut inner = lock(&self.shared.cells[d][li].inner);
                    std::mem::swap(&mut inner.state, &mut fleet.states[li]);
                    inner.claimed = 0;
                }
            }
        }
    }

    fn latency_floor(&self) -> SimDuration {
        self.floor
    }

    fn next_wake(&mut self, cluster: u32, now: SimTime) -> Option<SimTime> {
        // Same periodic batching as the scalar Mimic ("periodically takes
        // packets from the feeders" — §7.1).
        const PERIOD: SimDuration = SimDuration(2_000_000); // 2 ms
        let li = self.slot[cluster as usize] as usize;
        let earliest = match (
            self.ingress.feeders[li].next_time(),
            self.egress.feeders[li].next_time(),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }?;
        Some(earliest.max(now + PERIOD))
    }

    fn on_wake(&mut self, cluster: u32, now: SimTime) {
        if self.shared.failed.load(Ordering::Relaxed) {
            helper_panicked();
        }
        let li = self.slot[cluster as usize] as usize;
        // Fire and extract on this thread, in the exact interleaving of
        // inline stepping (both are order-sensitive); only the state-only
        // LSTM steps are deferred to the lanes' backlogs.
        loop {
            let mut fired = false;
            for (d, fleet) in [&mut self.ingress, &mut self.egress].into_iter().enumerate() {
                if let Some(v) = fleet.feeders[li].fire(now) {
                    fleet.lanes[li].fx.extract_into(&v, &mut self.feat_buf);
                    self.wake_rows[d].extend_from_slice(&self.feat_buf);
                    self.feeder_packets += 1;
                    fired = true;
                }
            }
            if !fired {
                break;
            }
        }
        for d in 0..2 {
            if self.wake_rows[d].is_empty() {
                continue;
            }
            let pending = self.shared.push_rows(d, li, &self.wake_rows[d]);
            self.unnotified += self.wake_rows[d].len() / self.shared.width;
            self.wake_rows[d].clear();
            self.backlog_max = self.backlog_max.max(pending as u64);
            if pending >= self.drain_at {
                drop(self.shared.lane_state(d, li));
            }
        }
        if let Some(helper) = &self.helper {
            if self.unnotified >= WAKE_ROWS {
                self.unnotified = 0;
                helper.notify();
            }
        }
    }

    fn drift(&self, cluster: u32) -> Option<f64> {
        let li = self.slot[cluster as usize] as usize;
        self.ingress.lanes[li]
            .monitor
            .as_ref()
            .and_then(|m| m.score())
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        // Flush buffers (per-lane queues/cursors, feats/out/raw, scratch)
        // are transient within one infer_batch call; the engine settles
        // every pending batch before snapshotting, so only durable lane
        // state is written. Feeder backlogs are applied first, so the
        // written state has seen every fired feeder packet.
        for (d, fleet) in [&self.ingress, &self.egress].into_iter().enumerate() {
            w.put_u64(fleet.lanes.len() as u64);
            for (li, lane) in fleet.lanes.iter().enumerate() {
                lane.fx.save_state(w);
                w.put_u64(lane.rng.state());
                let mut exits: Vec<(u64, u64)> = lane
                    .last_exit
                    .iter()
                    .map(|(f, t)| (f.0, t.as_nanos()))
                    .collect();
                exits.sort_unstable();
                w.put_u64(exits.len() as u64);
                for (f, t) in exits {
                    w.put_u64(f);
                    w.put_u64(t);
                }
                w.put_bool(lane.monitor.is_some());
                if let Some(mon) = &lane.monitor {
                    mon.save_state(w);
                }
                save_model_state(&self.shared.lane_state(d, li).state, w);
                fleet.feeders[li].save_state(w);
            }
        }
        w.put_u64(self.packets_seen);
        w.put_u64(self.feeder_packets);
        w.put_u64(self.rounds);
        w.put_u64_slice(&self.lane_occupancy.buckets);
        w.put_u64(self.lane_occupancy.count);
        w.put_u64(self.lane_occupancy.sum);
        w.put_u64(self.lane_occupancy.max);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        for (d, fleet) in [&mut self.ingress, &mut self.egress].into_iter().enumerate() {
            let n = r.get_u64()? as usize;
            if n != fleet.lanes.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "fleet has {} lanes, snapshot has {n}",
                    fleet.lanes.len()
                )));
            }
            for (li, lane) in fleet.lanes.iter_mut().enumerate() {
                lane.fx.load_state(r)?;
                lane.rng.set_state(r.get_u64()?);
                let n_exits = r.get_count(16)?;
                lane.last_exit.clear();
                for _ in 0..n_exits {
                    let flow = FlowId(r.get_u64()?);
                    let exit = SimTime(r.get_u64()?);
                    lane.last_exit.insert(flow, exit);
                }
                if r.get_bool()? != lane.monitor.is_some() {
                    return Err(SnapshotError::Corrupt(
                        "drift-monitor presence does not match the bundle".into(),
                    ));
                }
                if let Some(mon) = &mut lane.monitor {
                    mon.load_state(r)?;
                }
                let mut inner = self.shared.lane_state(d, li);
                load_model_state(&mut inner.state, r)?;
                drop(inner);
                fleet.feeders[li].load_state(r)?;
                lane.queue.clear();
                lane.cursor = 0;
            }
        }
        self.packets_seen = r.get_u64()?;
        self.feeder_packets = r.get_u64()?;
        self.rounds = r.get_u64()?;
        let buckets = r.get_u64_vec()?;
        if buckets.len() != self.lane_occupancy.buckets.len() {
            return Err(SnapshotError::Corrupt(
                "lane-occupancy histogram has the wrong bucket count".into(),
            ));
        }
        self.lane_occupancy.buckets.copy_from_slice(&buckets);
        self.lane_occupancy.count = r.get_u64()?;
        self.lane_occupancy.sum = r.get_u64()?;
        self.lane_occupancy.max = r.get_u64()?;
        Ok(())
    }

    fn append_obs(&self, out: &mut dcn_obs::ObsReport) {
        *out.counters
            .entry("mimic.fleet.packets_seen".into())
            .or_insert(0) += self.packets_seen;
        *out.counters
            .entry("mimic.fleet.feeder_packets".into())
            .or_insert(0) += self.feeder_packets;
        *out.counters.entry("mimic.fleet.rounds".into()).or_insert(0) += self.rounds;
        out.hists
            .entry("mimic.flush.lane_occupancy".into())
            .or_default()
            .merge(&self.lane_occupancy);
        // Where the feeder LSTM steps ran. Rows still queued when the run
        // ends are never applied: nothing reads those states again.
        *out.counters
            .entry("mimic.feeder.helper_steps".into())
            .or_insert(0) += self.shared.helper_steps.load(Ordering::Relaxed);
        *out.counters
            .entry("mimic.feeder.inline_steps".into())
            .or_insert(0) += self.shared.inline_steps.load(Ordering::Relaxed);
        let max = out.gauges.entry("mimic.feeder.backlog.max".into()).or_insert(0.0);
        *max = max.max(self.backlog_max as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DataGenConfig};
    use mimic_ml::train::TrainConfig;
    use std::sync::OnceLock;

    fn bundle() -> &'static (TrainedMimic, FatTreeParams) {
        static BUNDLE: OnceLock<(TrainedMimic, FatTreeParams)> = OnceLock::new();
        BUNDLE.get_or_init(|| {
            let mut cfg = DataGenConfig::default();
            cfg.sim.duration_s = 0.3;
            cfg.sim.seed = 77;
            let td = generate(&cfg);
            let tc = TrainConfig {
                epochs: 1,
                window: 4,
                ..TrainConfig::default()
            };
            let (ingress, _) = InternalModel::train_new(&td.ingress, td.ingress_disc, 8, &tc)
                .expect("valid training setup");
            let (egress, _) = InternalModel::train_new(&td.egress, td.egress_disc, 8, &tc)
                .expect("valid training setup");
            let mut topo = cfg.sim.topo;
            topo.clusters = 4;
            let trained = TrainedMimic {
                ingress,
                egress,
                feature_cfg: td.feature_cfg,
                feeder: td.feeder,
                envelope: None,
            };
            (trained, topo)
        })
    }

    fn fleet(helper: FeederHelper) -> BatchedMimicFleet {
        let (trained, topo) = bundle();
        let seeds: Vec<(u32, u64)> = (1..4).map(|c| (c, 500 + c as u64)).collect();
        BatchedMimicFleet::new(trained.clone(), *topo, 4, &seeds, helper)
    }

    /// A fleet whose backlogs fill as if a helper existed but never ran.
    fn unhelped_fleet() -> BatchedMimicFleet {
        let mut f = fleet(FeederHelper::Off);
        f.drain_at = BACKLOG_CAP;
        f
    }

    /// Fire `wakes` feeder wakes on every cluster, as the engine would.
    fn drive(fleet: &mut BatchedMimicFleet, clock: &mut [SimTime; 4], wakes: usize) {
        for _ in 0..wakes {
            for c in 1..4u32 {
                if let Some(t) = fleet.next_wake(c, clock[c as usize]) {
                    clock[c as usize] = t;
                    fleet.on_wake(c, t);
                }
            }
        }
    }

    /// Every lane's state bits, after the event thread drained its backlog.
    fn state_bits(fleet: &BatchedMimicFleet) -> Vec<u32> {
        let mut bits = Vec::new();
        for d in 0..2 {
            for li in 0..fleet.clusters.len() {
                let inner = fleet.shared.lane_state(d, li);
                for layer in &inner.state.layers {
                    bits.extend(layer.h.data.iter().chain(&layer.c.data).map(|x| x.to_bits()));
                }
            }
        }
        bits
    }

    fn pending(fleet: &BatchedMimicFleet) -> usize {
        let cells = fleet.shared.cells.iter().flatten();
        cells.map(|c| c.pending.load(Ordering::Relaxed)).sum()
    }

    #[test]
    fn backlogs_match_inline_stepping_at_the_cap_and_on_the_helper() {
        // `deferred` lets rows pile up until the cap forces an inline
        // drain; `stepped` (no helper) applies every wake's rows right
        // away, the sequence of stepping each feeder packet inline;
        // `helped` hands them to the helper thread.
        let mut deferred = unhelped_fleet();
        let mut stepped = fleet(FeederHelper::Off);
        let mut helped = fleet(FeederHelper::On);
        let mut clocks = [[SimTime::ZERO; 4]; 3];
        let mut wakes = 0;
        while deferred.backlog_max < BACKLOG_CAP as u64 {
            assert!(wakes < 5_000, "feeders never filled a backlog to the cap");
            drive(&mut deferred, &mut clocks[0], 1);
            drive(&mut stepped, &mut clocks[1], 1);
            drive(&mut helped, &mut clocks[2], 1);
            assert_eq!(pending(&stepped), 0, "a helper-less fleet deferred rows");
            for cell in deferred.shared.cells.iter().flatten() {
                assert!(cell.pending.load(Ordering::Relaxed) < BACKLOG_CAP, "cap not enforced");
            }
            wakes += 1;
        }
        let inline_at_cap = deferred.shared.inline_steps.load(Ordering::Relaxed);
        assert!(inline_at_cap >= BACKLOG_CAP as u64, "a full backlog was not drained inline");
        assert_eq!(deferred.shared.helper_steps.load(Ordering::Relaxed), 0);
        // Leave rows queued that no thread has reached, then let the event
        // thread take the lanes: the states must equal inline stepping.
        drive(&mut deferred, &mut clocks[0], 3);
        drive(&mut stepped, &mut clocks[1], 3);
        drive(&mut helped, &mut clocks[2], 3);
        assert!(pending(&deferred) > 0, "no backlog left to drain");
        let reference = state_bits(&stepped);
        assert_eq!(state_bits(&deferred), reference, "event-thread drain diverged");
        assert_eq!(state_bits(&helped), reference, "helper-applied backlog diverged");
        assert_eq!(deferred.feeder_packets, stepped.feeder_packets);
        assert_eq!(helped.feeder_packets, stepped.feeder_packets);
    }

    #[test]
    fn checkpoint_with_queued_backlogs_resumes_identically() {
        let mut original = unhelped_fleet();
        let mut clock = [SimTime::ZERO; 4];
        drive(&mut original, &mut clock, 20);
        assert!(pending(&original) > 0, "no backlog queued at the checkpoint");
        let mut w = SnapWriter::new();
        original.save_state(&mut w).expect("fleet snapshots");
        let bytes = w.into_bytes();

        let mut restored = fleet(FeederHelper::On);
        restored
            .load_state(&mut SnapReader::new(&bytes))
            .expect("fleet restores");
        let mut restored_clock = clock;
        drive(&mut original, &mut clock, 20);
        drive(&mut restored, &mut restored_clock, 20);
        let snap = |f: &BatchedMimicFleet| {
            let mut w = SnapWriter::new();
            f.save_state(&mut w).expect("fleet snapshots");
            w.into_bytes()
        };
        assert_eq!(snap(&original), snap(&restored), "resumed fleet diverged");
    }

    #[test]
    fn helper_panic_surfaces_on_the_event_thread() {
        let mut fleet = unhelped_fleet();
        // A row width that does not match the model makes the helper's
        // `update_only` assert.
        Arc::get_mut(&mut fleet.shared).expect("no helper yet").width += 1;
        fleet.helper = Some(HelperThread::spawn(Arc::clone(&fleet.shared)));
        let mut clock = [SimTime::ZERO; 4];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !fleet.shared.failed.load(Ordering::SeqCst) {
            assert!(std::time::Instant::now() < deadline, "the helper never ran");
            // Keep every lane below the cap, where the event thread would
            // apply (and trip over) the rows itself.
            let deepest = fleet.shared.cells.iter().flatten();
            if deepest.map(|c| c.pending.load(Ordering::Relaxed)).max() < Some(BACKLOG_CAP / 2) {
                drive(&mut fleet, &mut clock, 1);
            }
            std::thread::yield_now();
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(&mut fleet, &mut clock, 1)
        }))
        .expect_err("the event thread carried on after the helper panicked");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("feeder helper"), "unexpected panic: {msg}");
        // Dropping the fleet joins the dead helper without hanging.
        drop(fleet);
    }
}
