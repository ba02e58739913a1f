//! perfbench — end-to-end and per-layer benchmark of the onepass engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pagefreq --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload generates its input from `--seed`, sets up three times
//! (input, reference answer, one warm-up repetition; the median is
//! `setup_s`), then repeats the workload warm, in-process, through the
//! engine's public API for `--seconds` seconds, checking every
//! repetition's output against the reference.
//!
//! `--trace 0` reports the end-to-end metrics (medians over the
//! repetitions). `--trace 1` spends half the window on untraced
//! repetitions and half on layer replays: the workload's data is pushed
//! through each layer's public functions in turn, inside spans this
//! program records, and the per-layer metrics come from those spans and
//! from the engine's public reports. The spans are written as a Chrome
//! trace to `perfbench/traces/<workload>-seed<N>.json`.
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 only when every checked output matched.

mod alloc;
mod batch;
mod cpu;
mod harness;
mod pagerank_wl;
mod serve_wl;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use harness::{median_of, repeated_setup, timed_loop, Sample};
use spans::SpanLog;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Per-layer values, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A benchmark workload.
pub trait Workload {
    /// One line naming the workload and its input parameters.
    fn describe(&self) -> String;
    /// One timed repetition, checked against the reference. `traced`
    /// repetitions may also collect what the per-layer report needs.
    fn rep(&mut self, traced: bool) -> Result<Sample, String>;
    /// One layer replay recorded into `log`. It also makes one traced
    /// end-to-end call (the engine's own tracer on, or spans around the
    /// public calls), checked like a repetition. Returns that call's
    /// wall seconds, comparable with a repetition's `wall_s`, and the
    /// per-layer values measured besides span times.
    fn replay(&mut self, log: &mut SpanLog) -> Result<(f64, Layers), String>;
    /// Per-layer values read from the engine's public reports over the
    /// traced run's untraced repetitions (medians).
    fn reported(&self) -> Layers;
}

/// End-to-end metrics: name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("ttfa_s", "s"),
    ("ttfa_p95_s", "s"),
    ("cpu_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name, unit. A layer a workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("map.records", "count"),
    ("map.busy_s", "s"),
    ("map.out_bytes", "bytes"),
    ("partition.busy_s", "s"),
    ("in_node.busy_s", "s"),
    ("in_node.combine_ratio", "ratio"),
    ("in_node.post_map_tail_s", "s"),
    ("shuffle.records", "count"),
    ("shuffle.bytes", "bytes"),
    ("shuffle.stalls", "count"),
    ("transport.bytes", "bytes"),
    ("transport.extra_s", "s"),
    ("transport.close_wait_s", "s"),
    ("groupby.push_s", "s"),
    ("groupby.finish_s", "s"),
    ("groupby.groups", "count"),
    ("groupby.spill_mb", "MiB"),
    ("governor.sheds", "count"),
    ("governor.shed_mb", "MiB"),
    ("governor.pool_peak_mb", "MiB"),
    ("governor.stalls", "count"),
    ("cache.hits", "count"),
    ("cache.evictions", "count"),
    ("cache.reloads", "count"),
    ("cache.resident_mb", "MiB"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("plan.round_s", "s"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.dlq_dead", "count"),
    ("serve.early_answers", "count"),
    ("serve.feed_block_s", "s"),
    ("serve.ttfa_jain", "ratio"),
    ("layers.sum_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Replay span names whose per-replay total is a per-layer metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("map", "map.busy_s"),
    ("partition", "partition.busy_s"),
    ("in_node", "in_node.busy_s"),
    ("groupby.push", "groupby.push_s"),
    ("groupby.finish", "groupby.finish_s"),
    ("cache.get", "cache.get_s"),
    ("cache.put", "cache.put_s"),
];

const WORKLOADS: &[&str] = &["pagefreq", "sessions-tcp", "pagerank-cached", "serve-zipf"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let name = get("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| **w == name)
        .ok_or_else(|| format!("unknown workload {name:?} (one of {WORKLOADS:?})"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn setup(args: &Args) -> Result<(Box<dyn Workload>, f64), String> {
    let seed = args.seed;
    fn boxed<W: Workload + 'static>(
        r: Result<(W, f64), String>,
    ) -> Result<(Box<dyn Workload>, f64), String> {
        r.map(|(w, s)| (Box::new(w) as Box<dyn Workload>, s))
    }
    match args.workload {
        "pagefreq" => boxed(repeated_setup(|| batch::Batch::pagefreq(seed))),
        "sessions-tcp" => boxed(repeated_setup(|| batch::Batch::sessions_tcp(seed))),
        "pagerank-cached" => boxed(repeated_setup(|| pagerank_wl::PageRank::new(seed))),
        "serve-zipf" => boxed(repeated_setup(|| serve_wl::ServeZipf::new(seed))),
        _ => unreachable!("validated in parse_args"),
    }
}

/// The traced run: untraced repetitions for the baseline, then layer
/// replays. Returns the per-layer metrics and the spans' Chrome JSON.
fn traced_run(
    workload: &'static str,
    w: &mut dyn Workload,
    seconds: f64,
    samples: &mut Vec<Sample>,
) -> Result<(Layers, String), String> {
    samples.extend(timed_loop(seconds / 2.0, || w.rep(true)));
    let mut log = SpanLog::new(workload);
    let mut replayed: Vec<Layers> = Vec::new();
    let mut traced_wall: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    while replayed.len() < harness::MIN_REPS || t0.elapsed().as_secs_f64() < seconds / 2.0 {
        let (wall, layers) = log.replay(|log| w.replay(log))?;
        traced_wall.push(wall);
        replayed.push(layers);
    }
    let runs = log.per_run();
    let mut out = w.reported();
    let med = |f: &dyn Fn(usize) -> f64| {
        let v: Vec<f64> = (0..runs.len()).map(f).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    for (span, metric) in SPAN_METRICS {
        if runs.iter().any(|r| r.by_name.contains_key(span)) {
            out.insert(
                metric,
                med(&|i| runs[i].by_name.get(span).copied().unwrap_or(0.0)),
            );
        }
    }
    out.extend(harness::median_layers(&replayed));
    let layers_s = med(&|i| runs[i].layers_s);
    out.insert("layers.sum_s", layers_s);
    out.insert(
        "unattributed_s",
        spans::unattributed_s(median_of(samples, |s| s.cpu_s), layers_s),
    );
    out.insert(
        "trace.overhead_frac",
        stats::median(&traced_wall).unwrap_or(f64::NAN) / median_of(samples, |s| s.wall_s) - 1.0,
    );
    Ok((out, log.chrome_json()))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (mut w, setup_s) = match setup(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {}: {}",
        args.workload,
        args.seed,
        w.describe()
    );

    let mut samples = Vec::new();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        match traced_run(args.workload, w.as_mut(), args.seconds, &mut samples) {
            Ok((layers, trace_json)) => {
                for &(name, unit) in PER_LAYER {
                    metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
                }
                let dir = std::path::Path::new("perfbench").join("traces");
                let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
                match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace_json))
                {
                    Ok(()) => println!("wrote layer-replay trace to {}", path.display()),
                    Err(e) => eprintln!("could not write {}: {e}", path.display()),
                }
            }
            Err(e) => {
                eprintln!("layer replay failed: {e}");
                samples.push(Sample {
                    attempted: 1,
                    failed: 1,
                    ..Sample::default()
                });
            }
        }
    } else {
        samples = timed_loop(args.seconds, || w.rep(false));
        for &(name, unit) in END_TO_END {
            let value = match name {
                "wall_s" => median_of(&samples, |s| s.wall_s),
                "ttfa_s" => median_of(&samples, |s| s.ttfa_s),
                "ttfa_p95_s" => median_of(&samples, |s| s.ttfa_p95_s),
                "cpu_s" => median_of(&samples, |s| s.cpu_s),
                "peak_heap_mb" => median_of(&samples, |s| s.peak_heap_mb),
                "setup_s" => setup_s,
                other => unreachable!("no end-to-end metric {other}"),
            };
            metrics.push((name, value, unit));
        }
    }
    drop(w); // stop any workers the workload started

    let attempted: u64 = samples.iter().map(|s| s.attempted).sum();
    let failed: u64 = samples.iter().map(|s| s.failed).sum();
    let correct = failed == 0 && attempted > 0;
    let walls: Vec<String> = samples.iter().map(|s| format!("{:.4}", s.wall_s)).collect();
    println!(
        "repetitions {} (wall_s each: {})",
        samples.len(),
        walls.join(" ")
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "metric error_rate = {} ratio ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"key": "value"` string value in `text`, in order.
    fn values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        text.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &text[i + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    fn listed(section: &str) -> Vec<(&str, &str)> {
        values(section, "name")
            .into_iter()
            .zip(values(section, "unit"))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e = json.find("\"end_to_end\"").expect("end_to_end");
        let per_layer = json.find("\"per_layer\"").expect("per_layer");
        assert!(e2e < per_layer);
        assert_eq!(listed(&json[e2e..per_layer]), END_TO_END);
        assert_eq!(listed(&json[per_layer..]), PER_LAYER);
        assert_eq!(values(&json[..e2e], "name"), WORKLOADS);
    }
}
