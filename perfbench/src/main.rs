//! End-to-end benchmark of the MimicNet pipeline.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! A run trains one model per set-up seed at small scale, then alternates the
//! composed estimate and the full-fidelity ground truth at the workload's
//! large shape, each pair on fresh traffic drawn from the seed, for at
//! least `--seconds` and at least the workload's pooled pairs. It checks
//! every output and prints, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! README.md describes the metrics and workloads.

mod calibrate;
mod program;
mod report;
mod workload;

use calibrate::Speedometer;
use program::{Run, Samples, Shape};
use report::{iq_mean, Host, Tally, Walls};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{Workload, SETUP_SEEDS, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Traced runs whose engine counters are summed into the per-layer
/// metrics. Fixed, so a seed's counts do not depend on the host's speed.
const TRACED_RUNS: usize = 3;

/// Calls per timed function when costing the feeder path from outside,
/// and how many times that timing repeats (the interquartile mean is reported).
const FEEDER_CALLS: usize = 20_000;
const FEEDER_REPEATS: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        opts.insert(key, value);
    }
    let get = |k: &str| {
        opts.get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let name = get("--workload")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Output checks every estimate/truth pair must pass.
fn check_pair(tally: &mut Tally, shape: Shape, est: &Run, truth: &Run) {
    for (side, run) in [("estimate", est), ("truth", truth)] {
        tally.check(run.flows_completed > 0, || {
            format!("{side} at seed {} completed no flow", shape.seed)
        });
        tally.check(run.percentiles.iter().all(|p| p.is_finite()), || {
            format!(
                "{side} at seed {} has a non-finite percentile: {:?}",
                shape.seed, run.percentiles
            )
        });
    }
    tally.check(truth.events > est.events, || {
        format!(
            "truth at seed {} processed {} events, the estimate {}",
            shape.seed, truth.events, est.events
        )
    });
}

/// Sum `from` into `into`, key by key.
fn add_all(into: &mut BTreeMap<String, f64>, from: &BTreeMap<String, f64>) {
    for (k, v) in from {
        *into.entry(k.clone()).or_insert(0.0) += v;
    }
}

/// What the traced side of a `--trace 1` run collects.
#[derive(Default)]
struct Layers {
    est_obs: BTreeMap<String, f64>,
    truth_obs: BTreeMap<String, f64>,
    /// Wall of the traced estimates summed into `est_obs`, and how many.
    traced_est_wall_s: f64,
    traced_est_runs: usize,
    /// Traced estimate wall per simulated second, every iteration.
    traced_est_walls: Walls,
    compose_builds: Vec<f64>,
    truth_ns_per_event: Vec<f64>,
    truth_drops: f64,
    truth_marks: f64,
    truth_hops: f64,
    peak_queue_bytes: f64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut tally = Tally::default();

    let mut models = Vec::new();
    let mut setup_walls = Walls::default();
    let mut meter = Speedometer::new();
    for seed in SETUP_SEEDS {
        let setup = program::setup(w.transport, seed);
        let speed = meter.lap();
        if let Some((model, wall)) = tally.op(setup) {
            models.push(model);
            setup_walls.push(wall, speed);
        }
    }
    if models.is_empty() {
        eprintln!("perfbench: no set-up succeeded; nothing to measure");
        std::process::exit(1);
    }

    let mut est_walls = Walls::default();
    let mut truth_walls = Walls::default();
    let mut pooled_est = Samples::default();
    let mut pooled_truth = Samples::default();
    let mut layers = Layers::default();
    // The first successful estimate: its input, model index and bytes.
    let mut first_estimate: Option<(Shape, usize, Vec<u8>)> = None;
    let fixed = if args.trace {
        TRACED_RUNS
    } else {
        w.pooled_pairs
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut peak_rss = None;
    let mut i = 0;
    while i < fixed || start.elapsed() < budget {
        let shape = w.run_shape(args.seed, i);
        let model = &models[i % models.len()];
        let est = tally.op(program::estimate(model, shape, false));
        let est_speed = meter.lap();
        let truth = program::ground_truth(shape, false);
        let truth_speed = meter.lap();
        // The truth run has no error path, but it is an operation attempted.
        tally.op(Ok(()));
        truth_walls.push(truth.wall_s / shape.duration_s, truth_speed);
        if let Some(est) = est {
            check_pair(&mut tally, shape, &est, &truth);
            est_walls.push(est.wall_s / shape.duration_s, est_speed);
            if args.trace {
                layers
                    .truth_ns_per_event
                    .push(truth.wall_s * 1e9 / truth.events.max(1) as f64);
                trace_pair(
                    &mut tally,
                    &mut layers,
                    &mut meter,
                    model,
                    shape,
                    &est,
                    i < fixed,
                );
            } else if i < fixed {
                pooled_est.extend(&est.samples);
                pooled_truth.extend(&truth.samples);
            }
            first_estimate.get_or_insert((shape, i % models.len(), est.canonical));
        }
        if i == 0 {
            // Before the pooled samples, which are the benchmark's memory,
            // not the program's, start to grow.
            peak_rss = report::peak_rss_mb();
        }
        i += 1;
    }
    let pairs = i;

    // Bit-identity checks on the first input, outside the timed loop.
    if let Some((shape, m, first)) = &first_estimate {
        let (shape, model) = (*shape, &models[*m]);
        if !args.trace {
            if let Some(traced) = tally.op(program::estimate(model, shape, true)) {
                tally.check(traced.canonical == *first, || {
                    "traced estimate differs from the untraced one".into()
                });
            }
        }
        if w.partitions > 1 {
            let one = Shape {
                partitions: 1,
                ..shape
            };
            if let Some(seq) = tally.op(program::estimate(model, one, false)) {
                tally.check(seq.canonical == *first, || {
                    format!(
                        "{}-partition estimate differs from the 1-partition one",
                        w.partitions
                    )
                });
            }
        }
    }

    let est_mid = est_walls.scaled();
    let truth_mid = truth_walls.scaled();
    let mut extra: BTreeMap<&str, f64> = BTreeMap::new();
    extra.insert("pairs", pairs as f64);
    extra.insert("failed_frac", tally.failed_frac());
    extra.insert("estimate_wall_per_sim_s.raw", est_walls.raw());
    extra.insert("truth_wall_per_sim_s.raw", truth_walls.raw());
    extra.insert("setup_s.raw", setup_walls.raw());

    let metrics: Vec<(String, &str, f64)> = if args.trace {
        let values = layer_values(
            &mut tally, w, args.seed, &models[0], &layers, est_mid, truth_mid,
        );
        report::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(name.as_str()).copied().unwrap_or(f64::NAN);
                (name, unit, v)
            })
            .collect()
    } else {
        let acc = program::accuracy(&pooled_truth, &pooled_est);
        extra.insert("w1_fct_rel", acc.w1_fct_rel);
        extra.insert("w1_rtt_rel", acc.w1_rtt_rel);
        extra.insert("w1_tput_rel", acc.w1_tput_rel);
        extra.insert("fct_p99_rel_err", acc.fct_p99_rel_err);
        extra.insert("pooled_truth_fcts", pooled_truth.fct_count() as f64);
        let rss = peak_rss.unwrap_or(f64::NAN);
        let values = [
            est_mid,
            truth_mid,
            setup_walls.scaled(),
            1.0 + acc.w1_fct_rel,
            1.0 + acc.w1_rtt_rel,
            1.0 + acc.w1_tput_rel,
            1.0 + acc.fct_p99_rel_err,
            rss,
            1.0 - tally.failed_frac(),
        ];
        report::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), unit, v))
            .collect()
    };
    for (name, _, v) in &metrics {
        tally.check(v.is_finite(), || {
            format!("metric {name} is not a finite number")
        });
    }

    for (name, unit, v) in &metrics {
        eprintln!("{name:>36} {v:>14.6} {unit}");
    }
    let host = Host::probe();
    let params = [
        ("workload", report::json_str(w.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("clusters", w.clusters.to_string()),
        ("partitions", w.partitions.to_string()),
        ("protocol", report::json_str(w.transport.name())),
        ("sim_s_per_run", format!("{:?}", w.duration_s)),
        ("setups", SETUP_SEEDS.len().to_string()),
    ];
    println!("{}", report::record_json(&host, &params, &extra));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed() == 0,
        tally.attempted(),
        tally.failed(),
        report::metrics_json(&metrics)
    );
}

/// The traced half of one `--trace 1` iteration: the same estimate with
/// engine tracing (checked bit-identical to the untraced one), a compose
/// build, and for the first `TRACED_RUNS` inputs a traced ground truth.
fn trace_pair(
    tally: &mut Tally,
    layers: &mut Layers,
    meter: &mut Speedometer,
    model: &program::Model,
    shape: Shape,
    est: &Run,
    summed: bool,
) {
    let traced = program::estimate(model, shape, true);
    let speed = meter.lap();
    if let Some(traced) = tally.op(traced) {
        tally.check(traced.canonical == est.canonical, || {
            format!(
                "traced estimate at seed {} differs from the untraced one",
                shape.seed
            )
        });
        layers
            .traced_est_walls
            .push(traced.wall_s / shape.duration_s, speed);
        if summed {
            add_all(&mut layers.est_obs, &traced.obs);
            layers.traced_est_wall_s += traced.wall_s;
            layers.traced_est_runs += 1;
        }
    }
    if let Some(b) = tally.op(program::compose_build(model, shape)) {
        layers.compose_builds.push(b);
    }
    if summed {
        let truth = program::ground_truth(shape, true);
        tally.op(Ok(()));
        add_all(&mut layers.truth_obs, &truth.obs);
        layers.truth_drops += truth.queue_drops as f64;
        layers.truth_marks += truth.ecn_marks as f64;
        layers.truth_hops += truth.hops_forwarded as f64;
        let peak = truth
            .obs
            .get("sim.queue.peak_bytes")
            .copied()
            .unwrap_or(0.0);
        layers.peak_queue_bytes = layers.peak_queue_bytes.max(peak);
    }
    meter.mark();
}

/// Every per-layer value of a `--trace 1` run, by metric name.
fn layer_values(
    tally: &mut Tally,
    w: &Workload,
    seed: u64,
    model: &program::Model,
    layers: &Layers,
    est_mid: f64,
    truth_mid: f64,
) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let est = |k: &str| layers.est_obs.get(k).copied().unwrap_or(0.0);
    let truth = |k: &str| layers.truth_obs.get(k).copied().unwrap_or(0.0);
    let mut layer_wall_ns = 0.0;
    for kind in report::EVENT_KINDS {
        let (count, wall) = (
            format!("sim.events.{kind}"),
            format!("sim.events.{kind}.wall_ns"),
        );
        layer_wall_ns += est(&wall);
        v.insert(format!("est.{count}"), est(&count));
        v.insert(format!("est.{count}.wall_s"), est(&wall) / 1e9);
        v.insert(format!("truth.{count}"), truth(&count));
        v.insert(format!("truth.{count}.wall_s"), truth(&wall) / 1e9);
    }

    // Set-up, layer by layer, once per set-up seed.
    let (mut dg, mut tr, mut sps) = (Vec::new(), Vec::new(), Vec::new());
    for seed in SETUP_SEEDS {
        if let Some(s) = tally.op(program::setup_by_layer(w.transport, seed)) {
            dg.push(s.datagen_s);
            tr.push(s.train_s);
            sps.push(s.train_samples as f64 / s.train_s);
        }
    }
    v.insert("datagen.wall_s".into(), iq_mean(&dg));
    v.insert("train.wall_s".into(), iq_mean(&tr));
    v.insert("train.samples_per_s".into(), iq_mean(&sps));
    let build = iq_mean(&layers.compose_builds);
    v.insert("compose.build_s".into(), build);
    v.insert(
        "truth.ns_per_event".into(),
        iq_mean(&layers.truth_ns_per_event),
    );

    for k in [
        "mimic.fleet.feeder_packets",
        "mimic.fleet.packets_seen",
        "mimic.fleet.rounds",
        "mimic.flush.count",
    ] {
        v.insert(k.into(), est(k));
    }
    v.insert(
        "mimic.flush.wall_s".into(),
        est("mimic.flush.wall_ns") / 1e9,
    );
    for k in ["mimic.flush.batch_size", "mimic.flush.lane_occupancy"] {
        v.insert(
            format!("{k}.mean"),
            est(&format!("{k}.sum")) / est(&format!("{k}.count")).max(1.0),
        );
    }

    let shape = w.run_shape(seed, 0);
    let mut costs: [Vec<f64>; 5] = Default::default();
    for _ in 0..FEEDER_REPEATS {
        let c = program::feeder_costs(model, shape, FEEDER_CALLS);
        for (slot, x) in costs.iter_mut().zip([
            c.fire_ns,
            c.extract_ns,
            c.update_only_ns,
            c.predict_ns,
            c.step_lanes_ns_per_lane,
        ]) {
            slot.push(x);
        }
    }
    let [fire, extract, update, predict, lanes] = costs.map(|c| iq_mean(&c));
    v.insert("feeder.fire_ns".into(), fire);
    v.insert("features.extract_ns".into(), extract);
    v.insert("model.update_only_ns".into(), update);
    v.insert("model.predict_ns".into(), predict);
    v.insert("lstm.step_lanes_ns_per_lane".into(), lanes);
    v.insert(
        "feeder.attributed_frac".into(),
        est("mimic.fleet.feeder_packets") * (fire + extract + update)
            / est("sim.events.feeder_wake.wall_ns").max(1.0),
    );

    let parts = w.partitions as f64;
    let lp_wall_s = parts * layers.traced_est_wall_s;
    v.insert(
        "pdes.barrier_wait_s".into(),
        est("pdes.barrier_wait_ns") / 1e9,
    );
    v.insert(
        "pdes.barrier_wait_frac".into(),
        est("pdes.barrier_wait_ns") / 1e9 / lp_wall_s,
    );
    for k in ["sim.windows", "pdes.msgs_exported", "pdes.msgs_imported"] {
        v.insert(k.into(), est(k));
    }
    v.insert("truth.queue_drops".into(), layers.truth_drops);
    v.insert("truth.ecn_marks".into(), layers.truth_marks);
    v.insert("truth.hops_forwarded".into(), layers.truth_hops);
    v.insert("sim.queue.peak_bytes".into(), layers.peak_queue_bytes);

    // Layer walls inside the traced estimates: event handlers, flushes,
    // barrier waits and each LP's composition build. A flush settled inside
    // a feeder wake counts in both, so the unattributed share is a lower
    // bound.
    layer_wall_ns += est("mimic.flush.wall_ns") + est("pdes.barrier_wait_ns");
    let builds_s = parts * layers.traced_est_runs as f64 * build;
    let attributed_s = layer_wall_ns / 1e9 + builds_s;
    v.insert(
        "est.unattributed_frac".into(),
        1.0 - attributed_s / lp_wall_s,
    );
    v.insert(
        "obs.overhead_frac".into(),
        layers.traced_est_walls.scaled() / est_mid - 1.0,
    );
    v.insert("speedup_vs_truth".into(), truth_mid / est_mid);
    v
}
