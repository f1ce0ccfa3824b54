//! Property suite for the batched compose ordering invariants: under
//! randomized boundary traffic and randomized flush schedules,
//!
//! * two packets of one flow are never reordered across a batch flush
//!   (per-lane exit times are monotone per flow);
//! * a prediction is never delivered at or before its enqueue time;
//! * verdicts never depend on how the stream was chunked into flushes.

use dcn_sim::mimic::{BatchClusterModel, BoundaryDir, BoundaryItem, Verdict};
use dcn_sim::packet::{FlowId, Packet};
use dcn_sim::time::SimTime;
use dcn_sim::topology::{FatTree, FatTreeParams};
use mimic_ml::train::TrainConfig;
use mimicnet::batch::{BatchedMimicFleet, FeederHelper};
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::internal_model::InternalModel;
use mimicnet::mimic::TrainedMimic;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

fn bundle() -> &'static (TrainedMimic, FatTreeParams) {
    static BUNDLE: OnceLock<(TrainedMimic, FatTreeParams)> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let mut cfg = DataGenConfig::default();
        cfg.sim.duration_s = 0.3;
        cfg.sim.seed = 91;
        let td = generate(&cfg);
        let tc = TrainConfig {
            epochs: 1,
            window: 4,
            ..TrainConfig::default()
        };
        let (ing, _) = InternalModel::train_new(&td.ingress, td.ingress_disc, 8, &tc)
            .expect("valid training setup");
        let (eg, _) = InternalModel::train_new(&td.egress, td.egress_disc, 8, &tc)
            .expect("valid training setup");
        let mut topo = cfg.sim.topo;
        topo.clusters = 4;
        (
            TrainedMimic {
                ingress: ing,
                egress: eg,
                feature_cfg: td.feature_cfg,
                feeder: td.feeder,
                envelope: None,
            },
            topo,
        )
    })
}

/// One randomized boundary crossing, pre-materialization:
/// `(cluster, ingress?, flow, enqueue gap in ns)`. ECN capability derives
/// from flow parity.
type RawItem = (u32, bool, u64, u64);

fn raw_items() -> impl Strategy<Value = Vec<RawItem>> {
    proptest::collection::vec((1u32..4, any::<bool>(), 0u64..5, 1u64..2_000_000), 1..120)
}

fn materialize(raw: &[RawItem], topo: &FatTree) -> Vec<BoundaryItem> {
    let obs = topo.host(0, 0, 0);
    let mut t = SimTime::from_secs_f64(0.005);
    let mut items = Vec::with_capacity(raw.len());
    for (i, &(cluster, ingress, flow, gap_ns)) in raw.iter().enumerate() {
        t = SimTime(t.0 + gap_ns);
        let local = topo.host(cluster, (flow % 2) as u32, (flow / 2 % 2) as u32);
        let (dir, src, dst) = if ingress {
            (BoundaryDir::Ingress, obs, local)
        } else {
            (BoundaryDir::Egress, local, obs)
        };
        // Flow ids are direction-scoped so a "flow" never spans lanes.
        let flow_id = FlowId(1 + flow * 2 + ingress as u64);
        let pkt = Packet::data(
            i as u64 + 1,
            flow_id,
            src,
            dst,
            i as u64 * 1460,
            1460,
            flow % 2 == 0,
            t,
        );
        items.push(BoundaryItem {
            cluster,
            dir,
            pkt,
            enqueued_at: t,
        });
    }
    items
}

/// Feed `items` through a fresh fleet, flushing at the randomized chunk
/// boundaries; returns `(exit_time_or_MAX, mark_ce)` per item.
fn run_chunked(items: &[BoundaryItem], chunks: &[usize]) -> Vec<(u64, bool)> {
    let (bundle, topo_params) = bundle();
    let seeds: Vec<(u32, u64)> = (1..4).map(|c| (c, 40 + c as u64)).collect();
    let mut fleet =
        BatchedMimicFleet::new(bundle.clone(), *topo_params, 4, &seeds, FeederHelper::Off);
    let mut verdicts = Vec::new();
    let mut out = Vec::with_capacity(items.len());
    let mut rest = items;
    let mut ci = 0;
    while !rest.is_empty() {
        let take = chunks
            .get(ci)
            .copied()
            .unwrap_or(rest.len())
            .clamp(1, rest.len());
        ci += 1;
        let (batch, tail) = rest.split_at(take);
        rest = tail;
        fleet.infer_batch(batch, &mut verdicts);
        for (item, v) in batch.iter().zip(&verdicts) {
            out.push(match *v {
                Verdict::Drop => (u64::MAX, false),
                Verdict::Deliver { latency, mark_ce } => ((item.enqueued_at + latency).0, mark_ce),
            });
        }
    }
    out
}

proptest! {
    #[test]
    fn same_flow_packets_never_reorder_across_flushes(
        raw in raw_items(),
        chunks in proptest::collection::vec(1usize..16, 1..32),
    ) {
        let (_, topo_params) = bundle();
        let topo = FatTree::new(*topo_params);
        let items = materialize(&raw, &topo);
        let exits = run_chunked(&items, &chunks);
        let mut last: HashMap<(u32, BoundaryDir, FlowId), u64> = HashMap::new();
        for (item, &(exit, _)) in items.iter().zip(&exits) {
            if exit == u64::MAX {
                continue; // dropped — nothing delivered to reorder
            }
            let key = (item.cluster, item.dir, item.pkt.flow);
            if let Some(&prev) = last.get(&key) {
                prop_assert!(
                    exit >= prev,
                    "flow {:?} reordered: exit {exit} before earlier {prev}",
                    item.pkt.flow
                );
            }
            last.insert(key, exit);
        }
    }

    #[test]
    fn predictions_never_precede_their_enqueue(
        raw in raw_items(),
        chunks in proptest::collection::vec(1usize..16, 1..32),
    ) {
        let (_, topo_params) = bundle();
        let topo = FatTree::new(*topo_params);
        let items = materialize(&raw, &topo);
        let exits = run_chunked(&items, &chunks);
        for (item, &(exit, _)) in items.iter().zip(&exits) {
            if exit == u64::MAX {
                continue;
            }
            prop_assert!(
                exit > item.enqueued_at.0,
                "delivery at {exit} not after enqueue {}",
                item.enqueued_at.0
            );
        }
    }

    #[test]
    fn verdicts_are_flush_schedule_invariant(
        raw in raw_items(),
        chunks in proptest::collection::vec(1usize..16, 1..32),
    ) {
        let (_, topo_params) = bundle();
        let topo = FatTree::new(*topo_params);
        let items = materialize(&raw, &topo);
        let chunked = run_chunked(&items, &chunks);
        let whole = run_chunked(&items, &[items.len()]);
        prop_assert_eq!(chunked, whole);
    }
}
