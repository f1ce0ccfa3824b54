//! Operation tally, statistics, the metric tables, the host fingerprint and
//! the JSON lines a run prints.

use std::collections::BTreeMap;
use std::process::Command;

/// End-to-end metrics (printed with `--trace 0`): name and unit. Every one
/// is lower-is-better except `ok_frac`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("estimate_wall_per_sim_s", "s/s"),
    ("truth_wall_per_sim_s", "s/s"),
    ("setup_s", "s"),
    ("w1_fct_factor", "x"),
    ("w1_rtt_factor", "x"),
    ("w1_tput_factor", "x"),
    ("fct_p99_factor", "x"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// The event kinds whose count and wall time the engine records per kind.
pub const EVENT_KINDS: [&str; 5] = ["feeder_wake", "arrive", "tx_done", "timer", "flow_arrival"];

/// Per-layer metrics that are not per event kind (printed with
/// `--trace 1`, after the per-kind ones).
pub const PER_LAYER_FIXED: [(&str, &str); 30] = [
    ("datagen.wall_s", "s"),
    ("train.wall_s", "s"),
    ("train.samples_per_s", "1/s"),
    ("compose.build_s", "s"),
    ("truth.ns_per_event", "ns"),
    ("mimic.fleet.feeder_packets", "count"),
    ("mimic.fleet.packets_seen", "count"),
    ("mimic.fleet.rounds", "count"),
    ("mimic.flush.count", "count"),
    ("mimic.flush.wall_s", "s"),
    ("mimic.flush.batch_size.mean", "items"),
    ("mimic.flush.lane_occupancy.mean", "lanes"),
    ("feeder.fire_ns", "ns"),
    ("features.extract_ns", "ns"),
    ("model.update_only_ns", "ns"),
    ("model.predict_ns", "ns"),
    ("lstm.step_lanes_ns_per_lane", "ns"),
    ("feeder.attributed_frac", "frac"),
    ("pdes.barrier_wait_s", "s"),
    ("pdes.barrier_wait_frac", "frac"),
    ("sim.windows", "count"),
    ("pdes.msgs_exported", "count"),
    ("pdes.msgs_imported", "count"),
    ("truth.queue_drops", "count"),
    ("truth.ecn_marks", "count"),
    ("truth.hops_forwarded", "count"),
    ("sim.queue.peak_bytes", "B"),
    ("est.unattributed_frac", "frac"),
    ("obs.overhead_frac", "frac"),
    ("speedup_vs_truth", "x"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for side in ["est", "truth"] {
        for kind in EVENT_KINDS {
            out.push((format!("{side}.sim.events.{kind}"), "count"));
            out.push((format!("{side}.sim.events.{kind}.wall_s"), "s"));
        }
    }
    out.extend(PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Operations attempted and failed. Trainings, estimates, truth runs and
/// output checks are operations; an `Err` or a failed check is a failure.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one output check; print `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// Count one call into the program; print its error when it fails.
    pub fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("perfbench: operation failed: {e}");
        })
        .ok()
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Interquartile mean of `xs`: the mean of what is left after dropping the
/// lowest and the highest quarter (NaN when empty). Like a median it
/// ignores the odd stalled sample; unlike a median it does not jump
/// between the two modes when a run straddles two host speed regimes.
pub fn iq_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Wall-clock samples, as measured and scaled to the reference host speed
/// (see `calibrate`).
#[derive(Default)]
pub struct Walls {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Walls {
    /// Record a wall time measured while the host ran at `speed`.
    pub fn push(&mut self, wall: f64, speed: f64) {
        self.raw.push(wall);
        self.scaled.push(wall * speed);
    }

    /// Interquartile mean of the scaled samples: the reported value.
    pub fn scaled(&self) -> f64 {
        iq_mean(&self.scaled)
    }

    /// Interquartile mean of the samples as measured.
    pub fn raw(&self) -> f64 {
        iq_mean(&self.raw)
    }
}

/// Where a record was measured. Absolute numbers compare only between
/// records with the same fingerprint.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu,
            rustc: first_line_of("rustc", &["--version"]),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// `null` for a value JSON cannot hold.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_json(metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The record line: the host fingerprint, the run's parameters and extra
/// values that are not metrics of the contract.
pub fn record_json(host: &Host, params: &[(&str, String)], extra: &BTreeMap<&str, f64>) -> String {
    let mut fields = vec![
        format!("\"nproc\": {}", host.nproc),
        format!("\"cpu\": {}", json_str(&host.cpu)),
        format!("\"rustc\": {}", json_str(&host.rustc)),
        format!("\"commit\": {}", json_str(&host.commit)),
    ];
    fields.extend(params.iter().map(|(k, v)| format!("{}: {v}", json_str(k))));
    fields.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v))),
    );
    format!("{{\"record\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(total <= 9 + 128);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = spec.find(&format!("\"{key}\"")).expect("section present");
            let end = spec[start..].find(']').map_or(spec.len(), |e| start + e);
            spec[start..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim_start()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap_or("")
                        .to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn a_failed_check_raises_failed_frac() {
        let mut t = Tally::default();
        assert!(t.check(true, || "fine".into()));
        assert!(t.op(Ok::<_, String>(3)).is_some());
        assert_eq!(t.failed_frac(), 0.0);
        assert!(!t.check(false, || "broken".into()));
        assert_eq!((t.attempted(), t.failed()), (3, 1));
        assert!((t.failed_frac() - 1.0 / 3.0).abs() < 1e-12);
        assert!(t.op(Err::<(), _>("boom".into())).is_none());
        assert_eq!(t.failed_frac(), 0.5);
    }

    #[test]
    fn iq_mean_drops_the_outer_quarters() {
        assert_eq!(iq_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(iq_mean(&[100.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iq_mean(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
        assert!(iq_mean(&[]).is_nan());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        let m = metrics_json(&[
            ("a".into(), "s", 0.123456789012),
            ("b".into(), "x", f64::NAN),
        ]);
        assert_eq!(m, "{\"a\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \"b\": {\"value\": null, \"unit\": \"x\"}}");
    }
}
