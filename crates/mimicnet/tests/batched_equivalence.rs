//! Equivalence suite for the batched compose path (the lock on the PR's
//! tentpole): batched inference over a recorded boundary-packet trace must
//! be **byte-identical** to per-packet scalar stepping — for every flush
//! chunking, with and without the feeder helper thread.
//!
//! The comparator is the scalar pipeline spelled out by hand: one
//! [`FeatureExtractor`] + [`ModelState`] per (cluster, direction) lane,
//! views built by the same [`packet_view`] projection, raw outputs from
//! [`SeqModel::step_lanes_reference`] one packet at a time, congestion
//! feedback applied with threshold decisions. The fleet (in
//! [`DecisionMode::Threshold`]) must reproduce every raw output bit, no
//! matter how the item stream is chunked into flushes.

use dcn_sim::mimic::{BatchClusterModel, BoundaryDir, BoundaryItem, Verdict};
use dcn_sim::packet::{FlowId, Packet};
use dcn_sim::time::SimTime;
use dcn_sim::topology::FatTree;
use mimic_ml::loss::sigmoid;
use mimic_ml::model::{ModelState, OUTPUTS, OUT_DROP, OUT_LATENCY};
use mimic_ml::train::TrainConfig;
use mimicnet::batch::{BatchedMimicFleet, FeederHelper};
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::drift::FeatureEnvelope;
use mimicnet::features::FeatureExtractor;
use mimicnet::internal_model::InternalModel;
use mimicnet::mimic::{packet_view, DecisionMode, TrainedMimic};
use std::collections::HashMap;

fn quick_bundle() -> (TrainedMimic, dcn_sim::topology::FatTreeParams) {
    let mut cfg = DataGenConfig::default();
    cfg.sim.duration_s = 0.3;
    cfg.sim.seed = 77;
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
    (
        TrainedMimic {
            ingress: ing,
            egress: eg,
            feature_cfg: td.feature_cfg,
            feeder: td.feeder,
            envelope: FeatureEnvelope::fit(&td.ingress.features),
        },
        cfg.sim.topo,
    )
}

/// A recorded boundary-packet trace: many flows crossing three Mimic'ed
/// clusters in both directions, enqueue times strictly increasing (the
/// engine delivers items in event order).
fn record_trace(topo: &FatTree) -> Vec<BoundaryItem> {
    let obs_host = topo.host(0, 0, 0);
    let mut items = Vec::new();
    for i in 0..240u64 {
        let cluster = 1 + (i % 3) as u32;
        let flow = FlowId(1 + i % 7);
        let rack = (i % 2) as u32;
        let server = ((i / 2) % 2) as u32;
        let local = topo.host(cluster, rack, server);
        let dir = if i % 2 == 0 {
            BoundaryDir::Ingress
        } else {
            BoundaryDir::Egress
        };
        let (src, dst) = match dir {
            BoundaryDir::Ingress => (obs_host, local),
            BoundaryDir::Egress => (local, obs_host),
        };
        let t = SimTime::from_secs_f64(0.01 + i as f64 * 3.1e-5);
        let pkt = Packet::data(i + 1, flow, src, dst, i * 1460, 1460, i % 3 == 0, t);
        items.push(BoundaryItem {
            cluster,
            dir,
            pkt,
            enqueued_at: t,
        });
    }
    items
}

/// Scalar reference: step every lane's packets one at a time through the
/// reference lane kernel (a plain loop of `SeqModel::step`), with
/// threshold-decision congestion feedback — the exact per-packet
/// arithmetic of `LearnedMimic::on_packet`.
fn scalar_reference(bundle: &TrainedMimic, topo: &FatTree, items: &[BoundaryItem]) -> Vec<[f32; OUTPUTS]> {
    struct LaneRef {
        fx: FeatureExtractor,
        state: ModelState,
    }
    let mut lanes: HashMap<(u32, BoundaryDir), LaneRef> = HashMap::new();
    let mut feat = Vec::new();
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let model = match item.dir {
            BoundaryDir::Ingress => &bundle.ingress,
            BoundaryDir::Egress => &bundle.egress,
        };
        let lane = lanes.entry((item.cluster, item.dir)).or_insert_with(|| LaneRef {
            fx: FeatureExtractor::new(bundle.feature_cfg),
            state: model.init_state(),
        });
        let view = packet_view(topo, item.dir, &item.pkt, item.enqueued_at);
        lane.fx.extract_into(&view, &mut feat);
        let mut o = [[0.0; OUTPUTS]];
        model.model.step_lanes_reference(&feat, 1, std::slice::from_mut(&mut lane.state), &[0], &mut o);
        let o = o[0];
        if sigmoid(o[OUT_DROP]) as f64 > 0.5 {
            lane.fx.observe_outcome(1.0, true);
        } else {
            lane.fx.observe_outcome(o[OUT_LATENCY].clamp(0.0, 1.0), false);
        }
        out.push(o);
    }
    out
}

/// Run the fleet over `items` flushed in chunks of `chunk`, returning the
/// concatenated raw outputs.
fn fleet_outputs(
    bundle: &TrainedMimic,
    topo_params: dcn_sim::topology::FatTreeParams,
    items: &[BoundaryItem],
    chunk: usize,
    helper: FeederHelper,
) -> Vec<[f32; OUTPUTS]> {
    let seeds: Vec<(u32, u64)> = (1..4).map(|c| (c, 1000 + c as u64)).collect();
    let mut fleet = BatchedMimicFleet::new(bundle.clone(), topo_params, 4, &seeds, helper)
        .with_mode(DecisionMode::Threshold);
    let mut verdicts = Vec::new();
    let mut raw = Vec::with_capacity(items.len());
    for batch in items.chunks(chunk) {
        fleet.infer_batch(batch, &mut verdicts);
        assert_eq!(verdicts.len(), batch.len(), "one verdict per item");
        raw.extend_from_slice(fleet.raw_outputs());
    }
    raw
}

fn bits(rows: &[[f32; OUTPUTS]]) -> Vec<[u32; OUTPUTS]> {
    rows.iter()
        .map(|r| [r[0].to_bits(), r[1].to_bits(), r[2].to_bits()])
        .collect()
}

#[test]
fn batched_trace_is_byte_identical_to_scalar_stepping() {
    let (bundle, mut topo_params) = quick_bundle();
    topo_params.clusters = 4;
    let topo = FatTree::new(topo_params);
    let items = record_trace(&topo);

    let reference = bits(&scalar_reference(&bundle, &topo, &items));

    for helper in [FeederHelper::Off, FeederHelper::On] {
        for chunk in [1usize, 7, 16, 64] {
            let got = bits(&fleet_outputs(&bundle, topo_params, &items, chunk, helper));
            assert_eq!(
                got, reference,
                "raw outputs diverged from scalar stepping (helper {helper:?}, chunk {chunk})"
            );
        }
    }
}

#[test]
fn verdicts_are_chunking_invariant_in_sample_mode() {
    // Sampled decisions draw from per-lane RNG streams, so they too must
    // depend only on per-lane item order — never on flush boundaries.
    let (bundle, mut topo_params) = quick_bundle();
    topo_params.clusters = 4;
    let topo = FatTree::new(topo_params);
    let items = record_trace(&topo);

    let run = |chunk: usize| {
        let seeds: Vec<(u32, u64)> = (1..4).map(|c| (c, 1000 + c as u64)).collect();
        let mut fleet =
            BatchedMimicFleet::new(bundle.clone(), topo_params, 4, &seeds, FeederHelper::Off);
        let mut verdicts = Vec::new();
        let mut all: Vec<(u64, bool)> = Vec::new();
        for batch in items.chunks(chunk) {
            fleet.infer_batch(batch, &mut verdicts);
            all.extend(verdicts.iter().map(|v| match *v {
                Verdict::Drop => (u64::MAX, false),
                Verdict::Deliver { latency, mark_ce } => (latency.0, mark_ce),
            }));
        }
        all
    };
    let whole = run(items.len());
    for chunk in [1usize, 7, 16, 64] {
        assert_eq!(run(chunk), whole, "verdicts changed with flush chunking {chunk}");
    }
}
