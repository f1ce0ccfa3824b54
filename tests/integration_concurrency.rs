//! Concurrency-determinism suite: the pipeline's parallel training fan-out
//! and the batched fleet's feeder helper thread are pure wall-clock
//! optimizations — results must be bit-identical to their serial/inline
//! counterparts at every worker count and partition count.
//! `RUST_TEST_THREADS` variation in CI re-runs this binary under
//! contention to shake out scheduling sensitivity.

use dcn_sim::config::SimConfig;
use dcn_transport::Protocol;
use mimicnet::pipeline::{Pipeline, PipelineConfig};

fn quick_cfg(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = 0.25;
    cfg.base.seed = seed;
    cfg.hidden = 8;
    cfg.train.epochs = 1;
    cfg.train.window = 4;
    cfg
}

fn assert_identical(
    seq: &dcn_sim::instrument::Metrics,
    par: &dcn_sim::instrument::Metrics,
    label: &str,
) {
    assert_eq!(seq.flows_started(), par.flows_started(), "{label}: flows started");
    assert_eq!(
        seq.flows_completed(),
        par.flows_completed(),
        "{label}: flows completed"
    );
    assert_eq!(
        seq.total_delivered_bytes(),
        par.total_delivered_bytes(),
        "{label}: delivered bytes"
    );
    assert_eq!(seq.queue_drops, par.queue_drops, "{label}: drops");
    assert_eq!(seq.ecn_marks, par.ecn_marks, "{label}: marks");
    assert_eq!(seq.mimic_drops, par.mimic_drops, "{label}: mimic drops");
    for (id, rec) in &seq.flows {
        let other = par.flows.get(id).unwrap_or_else(|| panic!("{label}: flow {id:?} missing"));
        assert_eq!(rec.end, other.end, "{label}: FCT of {id:?}");
    }
}

// ---------------------------------------------------------------------
// Parallel training: the per-direction and per-bundle fan-outs must be
// bit-identical to serial training at any worker budget.
// ---------------------------------------------------------------------

#[test]
fn direction_fanout_matches_serial_training() {
    let serial = Pipeline::new(quick_cfg(91)).train().to_json();
    for workers in [2usize, 4, 8] {
        let mut cfg = quick_cfg(91);
        cfg.train.workers = workers;
        let parallel = Pipeline::new(cfg).train().to_json();
        assert_eq!(serial, parallel, "direction fan-out diverged at {workers} workers");
    }
}

#[test]
fn bundle_fanout_matches_serial_training() {
    let cfgs = [quick_cfg(17), quick_cfg(23)];
    let serial: Vec<String> = Pipeline::try_train_bundles(&cfgs, 1)
        .expect("serial bundle training")
        .iter()
        .map(|t| t.to_json())
        .collect();
    for workers in [2usize, 4, 8] {
        let parallel: Vec<String> = Pipeline::try_train_bundles(&cfgs, workers)
            .expect("parallel bundle training")
            .iter()
            .map(|t| t.to_json())
            .collect();
        assert_eq!(serial, parallel, "bundle fan-out diverged at {workers} workers");
    }
}

// ---------------------------------------------------------------------
// Feeder helper: applying feeder backlogs on the fleet's helper thread
// must leave composed trajectories byte-identical to applying them on the
// event thread — sequentially and across PDES partition counts, for
// several seeds and both loss- and ECN-driven transports.
// ---------------------------------------------------------------------

fn quick_trained() -> (mimicnet::mimic::TrainedMimic, SimConfig) {
    use mimicnet::datagen::{generate, DataGenConfig};
    use mimicnet::internal_model::InternalModel;

    let mut dg = DataGenConfig::default();
    dg.sim.duration_s = 0.3;
    dg.sim.seed = 55;
    let td = generate(&dg);
    let tc = mimic_ml::train::TrainConfig {
        epochs: 1,
        window: 4,
        ..mimic_ml::train::TrainConfig::default()
    };
    let (ing, _) = InternalModel::train_new(&td.ingress, td.ingress_disc, 8, &tc)
        .expect("valid training setup");
    let (eg, _) = InternalModel::train_new(&td.egress, td.egress_disc, 8, &tc)
        .expect("valid training setup");
    (
        mimicnet::mimic::TrainedMimic {
            ingress: ing,
            egress: eg,
            feature_cfg: td.feature_cfg,
            feeder: td.feeder,
            envelope: None,
        },
        dg.sim,
    )
}

#[test]
fn feeder_helper_matches_inline_backlogs() {
    use dcn_sim::pdes::PdesRunOpts;
    use mimicnet::batch::FeederHelper;
    use mimicnet::compose::{batched_fleet, composed_config, run_composed_fleet};

    let (trained, mut base) = quick_trained();
    base.duration_s = 0.25;
    // Obs never changes a trajectory; it is on to read where the feeder
    // steps ran.
    let opts = PdesRunOpts {
        obs: true,
        ..PdesRunOpts::default()
    };
    let mut helper_steps = 0;
    for protocol in [Protocol::NewReno, Protocol::Dctcp { k: 20 }] {
        for seed in [31u64, 32, 33] {
            base.seed = seed;
            let cfg = composed_config(base, 4, protocol).expect("valid composition");
            let run = |parts: usize, helper: FeederHelper| {
                run_composed_fleet(cfg, protocol, parts, &opts, &|| {
                    Box::new(batched_fleet(&cfg, 4, &trained, helper))
                })
                .expect("composed run")
            };
            let inline = run(1, FeederHelper::Off);
            assert!(inline.flows_completed() > 0, "composition made no progress");
            for parts in [1usize, 2, 4] {
                for helper in [FeederHelper::Off, FeederHelper::On] {
                    let m = run(parts, helper);
                    let label = format!("{} seed {seed} x{parts} helper={helper:?}", protocol.name());
                    assert_identical(&inline, &m, &label);
                    assert_eq!(inline.canonical_bytes(), m.canonical_bytes(), "{label}");
                    let obs = m.obs.as_ref().expect("obs report");
                    helper_steps += obs.counters["mimic.feeder.helper_steps"];
                    if helper == FeederHelper::Off {
                        assert_eq!(obs.counters["mimic.feeder.helper_steps"], 0, "{label}");
                    }
                }
            }
        }
    }
    assert!(helper_steps > 0, "the feeder helper never applied a row");
}
