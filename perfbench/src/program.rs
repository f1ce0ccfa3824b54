//! The adapter: every call this benchmark makes into the MimicNet crates
//! lives in this file, so an API change in the program (for example folding
//! the compose entry points into one) touches only this file.
//!
//! Each function times exactly the program call it wraps and returns plain
//! data; the rest of the benchmark never sees a program type except the
//! opaque [`Model`].

use dcn_sim::stats::percentile;
use dcn_sim::time::SimTime;
use dcn_transport::Protocol;
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::features::{FeatureExtractor, PacketView};
use mimicnet::feeder::Feeder;
use mimicnet::internal_model::InternalModel;
use mimicnet::metrics::{compare, observed, w1_fct_relative, ObservedSamples};
use mimicnet::mimic::TrainedMimic;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A trained pair of direction models.
pub type Model = TrainedMimic;

/// The transport a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    NewReno,
    /// DCTCP with the switch ECN marking threshold `k` in packets.
    Dctcp {
        k: u32,
    },
}

impl Transport {
    fn protocol(self) -> Protocol {
        match self {
            Transport::NewReno => Protocol::NewReno,
            Transport::Dctcp { k } => Protocol::Dctcp { k },
        }
    }

    pub fn name(self) -> &'static str {
        self.protocol().name()
    }
}

/// Simulated length of the small-scale (training) configuration. The
/// data-generation run is `PipelineConfig::datagen_duration_factor` times
/// longer.
const SETUP_DURATION_S: f64 = 0.5;

/// The pipeline configuration of one run: the figure binaries' quick-scale
/// settings (5 epochs, window 8, 24 hidden units) with one training worker,
/// so set-up time does not depend on how the scheduler places two threads.
fn pipeline_config(transport: Transport, seed: u64, duration_s: f64) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = duration_s;
    cfg.base.seed = seed;
    cfg.protocol = transport.protocol();
    cfg.train.epochs = 5;
    cfg.train.window = 8;
    cfg.train.seed = seed;
    cfg.hidden = 24;
    cfg.with_workers(1)
}

/// Small-scale simulation plus training of both direction models through
/// the public pipeline (paper Table 2, rows 1-2). Returns the model and the
/// wall time of the call in seconds.
pub fn setup(transport: Transport, seed: u64) -> Result<(Model, f64), String> {
    let mut pipe = Pipeline::new(pipeline_config(transport, seed, SETUP_DURATION_S));
    let t0 = Instant::now();
    let out = pipe.try_train_with_data();
    let wall = t0.elapsed().as_secs_f64();
    let (model, _) = out.map_err(|e| format!("training failed: {e}"))?;
    Ok((model, wall))
}

/// The same set-up as [`setup`], called layer by layer so each layer's wall
/// time shows on its own: `datagen::generate` (the small-scale run plus
/// feature extraction), then `InternalModel::train_stacked` for each
/// direction.
pub struct SetupLayers {
    pub datagen_s: f64,
    pub train_s: f64,
    /// Training samples processed: packets in both direction datasets
    /// times epochs.
    pub train_samples: u64,
}

pub fn setup_by_layer(transport: Transport, seed: u64) -> Result<SetupLayers, String> {
    let cfg = pipeline_config(transport, seed, SETUP_DURATION_S);
    let mut sim = cfg.base;
    sim.duration_s *= cfg.datagen_duration_factor.max(1.0);
    let dg = DataGenConfig {
        sim,
        protocol: cfg.protocol,
        disc_levels: cfg.disc_levels,
        ..DataGenConfig::default()
    };
    let t0 = Instant::now();
    let data = generate(&dg);
    let datagen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for (ds, disc) in [
        (&data.ingress, data.ingress_disc),
        (&data.egress, data.egress_disc),
    ] {
        InternalModel::train_stacked(ds, disc, cfg.hidden, cfg.layers, &cfg.train)
            .map_err(|e| format!("training failed: {e:?}"))?;
    }
    let train_s = t1.elapsed().as_secs_f64();
    let packets = (data.ingress.len() + data.egress.len()) as u64;
    Ok(SetupLayers {
        datagen_s,
        train_s,
        train_samples: packets * cfg.train.epochs as u64,
    })
}

/// One simulation at the large shape: the composed estimate or the
/// full-fidelity ground truth.
pub struct Run {
    /// Wall time of the program call, seconds.
    pub wall_s: f64,
    /// Observable-cluster samples.
    pub samples: Samples,
    /// `Metrics::canonical_bytes`: equal runs have equal bytes.
    pub canonical: Vec<u8>,
    pub flows_completed: usize,
    pub events: u64,
    pub queue_drops: u64,
    pub ecn_marks: u64,
    pub hops_forwarded: u64,
    /// p50 and p99 of the FCT, throughput and RTT samples.
    pub percentiles: [f64; 6],
    /// The engine's observability registry, flattened: counters and gauges
    /// by name, histograms as `<name>.count` and `<name>.sum`. Empty when
    /// the run was not traced.
    pub obs: BTreeMap<String, f64>,
}

/// Observable-cluster samples of one or more runs.
#[derive(Default)]
pub struct Samples(ObservedSamples);

impl Samples {
    pub fn extend(&mut self, other: &Samples) {
        self.0.fct.extend_from_slice(&other.0.fct);
        self.0.throughput.extend_from_slice(&other.0.throughput);
        self.0.rtt.extend_from_slice(&other.0.rtt);
    }

    pub fn fct_count(&self) -> usize {
        self.0.fct.len()
    }
}

/// The large shape: cluster count, PDES partitions, transport, simulated
/// seconds and the traffic seed.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub clusters: u32,
    pub partitions: usize,
    pub transport: Transport,
    pub duration_s: f64,
    pub seed: u64,
}

fn run_from(
    metrics: dcn_sim::instrument::Metrics,
    cfg: &PipelineConfig,
    clusters: u32,
    wall_s: f64,
) -> Run {
    let mut topo = cfg.base.topo;
    topo.clusters = clusters;
    let topo = dcn_sim::topology::FatTree::new(topo);
    let samples = observed(&metrics, &topo, mimicnet::compose::OBSERVABLE);
    let percentiles = [
        percentile(&samples.fct, 50.0),
        percentile(&samples.fct, 99.0),
        percentile(&samples.throughput, 50.0),
        percentile(&samples.throughput, 99.0),
        percentile(&samples.rtt, 50.0),
        percentile(&samples.rtt, 99.0),
    ];
    Run {
        wall_s,
        canonical: metrics.canonical_bytes(),
        flows_completed: metrics.flows_completed(),
        events: metrics.events_processed,
        queue_drops: metrics.queue_drops,
        ecn_marks: metrics.ecn_marks,
        hops_forwarded: metrics.hops_forwarded,
        percentiles,
        obs: metrics.obs.as_deref().map(flatten_obs).unwrap_or_default(),
        samples: Samples(samples),
    }
}

fn flatten_obs(r: &dcn_obs::ObsReport) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = r
        .counters
        .iter()
        .map(|(k, &v)| (k.clone(), v as f64))
        .collect();
    out.extend(r.gauges.iter().map(|(k, &v)| (k.clone(), v)));
    for (k, h) in &r.hists {
        out.insert(format!("{k}.count"), h.count as f64);
        out.insert(format!("{k}.sum"), h.sum as f64);
    }
    out
}

/// The composed estimate on the batched fleet through
/// `Pipeline::try_estimate_opts`, with engine tracing when `traced`.
pub fn estimate(model: &Model, shape: Shape, traced: bool) -> Result<Run, String> {
    let cfg = pipeline_config(shape.transport, shape.seed, shape.duration_s);
    let mut pipe = Pipeline::new(cfg);
    let opts = dcn_sim::pdes::PdesRunOpts {
        obs: traced,
        ..Default::default()
    };
    let t0 = Instant::now();
    let out = pipe.try_estimate_opts(model, shape.clusters, shape.partitions, &opts);
    let wall = t0.elapsed().as_secs_f64();
    let report = out.map_err(|e| format!("estimate failed: {e}"))?;
    Ok(run_from(report.metrics, &cfg, shape.clusters, wall))
}

/// The full-fidelity packet simulation at the same shape
/// (`compose::ground_truth(..).run()`), with engine tracing when `traced`.
pub fn ground_truth(shape: Shape, traced: bool) -> Run {
    let cfg = pipeline_config(shape.transport, shape.seed, shape.duration_s);
    let t0 = Instant::now();
    let mut sim = mimicnet::compose::ground_truth(cfg.base, shape.clusters, cfg.protocol);
    if traced {
        sim.enable_obs();
    }
    let metrics = sim.run();
    let wall = t0.elapsed().as_secs_f64();
    run_from(metrics, &cfg, shape.clusters, wall)
}

/// Wall time of building the batched composed simulation
/// (`compose::try_compose_batched`) without running it.
pub fn compose_build(model: &Model, shape: Shape) -> Result<f64, String> {
    let cfg = pipeline_config(shape.transport, shape.seed, shape.duration_s);
    let t0 = Instant::now();
    let sim = mimicnet::compose::try_compose_batched(cfg.base, shape.clusters, cfg.protocol, model)
        .map_err(|e| format!("compose failed: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    drop(black_box(sim));
    Ok(wall)
}

/// Ground-truth accuracy of an estimate (paper §7.2), each distance
/// normalised by the truth's mean.
pub struct Accuracy {
    pub w1_fct_rel: f64,
    pub w1_rtt_rel: f64,
    pub w1_tput_rel: f64,
    pub fct_p99_rel_err: f64,
}

pub fn accuracy(truth: &Samples, est: &Samples) -> Accuracy {
    let (t, e) = (&truth.0, &est.0);
    let r = compare(t, e);
    let mean = |xs: &[f64]| dcn_sim::stats::mean(xs);
    Accuracy {
        w1_fct_rel: w1_fct_relative(&t.fct, &e.fct),
        w1_rtt_rel: r.w1_rtt / mean(&t.rtt),
        w1_tput_rel: r.w1_throughput / mean(&t.throughput),
        fct_p99_rel_err: r.fct_p99_rel_err(),
    }
}

/// Per-call costs of the functions a feeder wake runs, timed from outside
/// on a trained model, in nanoseconds.
pub struct FeederCosts {
    pub fire_ns: f64,
    pub extract_ns: f64,
    pub update_only_ns: f64,
    pub predict_ns: f64,
    /// `Lstm::step_lanes_blocked` on the first layer with one lane per
    /// Mimic cluster, per lane.
    pub step_lanes_ns_per_lane: f64,
}

/// Time each feeder-path function over `calls` calls. Inputs are the
/// packets a feeder built from `model` actually produces at `shape`.
pub fn feeder_costs(model: &Model, shape: Shape, calls: usize) -> FeederCosts {
    let fc = model.feature_cfg;
    let mut feeder = Feeder::new(
        model.feeder.ingress.clone(),
        shape.clusters,
        fc.racks_per_cluster,
        fc.hosts_per_rack,
        fc.aggs_per_cluster,
        fc.cores,
        shape.seed,
    );
    let mut views: Vec<PacketView> = Vec::with_capacity(calls);
    let t0 = Instant::now();
    for _ in 0..calls {
        let due = feeder.next_time().unwrap_or(SimTime::ZERO);
        views.push(black_box(feeder.fire(due)).expect("a feeder is due at its next time"));
    }
    let fire_ns = t0.elapsed().as_nanos() as f64 / calls as f64;

    let mut fx = FeatureExtractor::new(fc);
    let width = fc.width();
    let mut feats = vec![0.0f32; calls * width];
    let mut buf = Vec::with_capacity(width);
    let t0 = Instant::now();
    for (i, v) in views.iter().enumerate() {
        fx.extract_into(v, &mut buf);
        feats[i * width..(i + 1) * width].copy_from_slice(black_box(&buf));
    }
    let extract_ns = t0.elapsed().as_nanos() as f64 / calls as f64;

    let m = &model.ingress;
    let mut state = m.init_state();
    let t0 = Instant::now();
    for x in feats.chunks_exact(width) {
        m.update_only(black_box(x), &mut state);
    }
    let update_only_ns = t0.elapsed().as_nanos() as f64 / calls as f64;
    black_box(&state);

    let mut state = m.init_state();
    let t0 = Instant::now();
    for x in feats.chunks_exact(width) {
        black_box(m.predict(black_box(x), &mut state));
    }
    let predict_ns = t0.elapsed().as_nanos() as f64 / calls as f64;

    let lstm = &m.model.lstms[0];
    let lanes = (shape.clusters - 1) as usize;
    let rounds = (calls / lanes).max(1);
    let h = lstm.hidden;
    let (mut hs, mut cs, mut z) = (
        vec![0.0; lanes * h],
        vec![0.0; lanes * h],
        vec![0.0; lanes * 4 * h],
    );
    let xs: Vec<f32> = feats.iter().copied().cycle().take(lanes * width).collect();
    let t0 = Instant::now();
    for _ in 0..rounds {
        lstm.step_lanes_blocked(black_box(&xs), lanes, &mut hs, &mut cs, &mut z);
    }
    let step_lanes_ns_per_lane = t0.elapsed().as_nanos() as f64 / (rounds * lanes) as f64;
    black_box(&hs);

    FeederCosts {
        fire_ns,
        extract_ns,
        update_only_ns,
        predict_ns,
        step_lanes_ns_per_lane,
    }
}
