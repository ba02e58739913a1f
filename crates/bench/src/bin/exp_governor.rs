//! Adaptive memory governor vs static per-reducer budgets.
//!
//! Sessionization with Zipf-skewed users hash-partitions very unevenly:
//! the reducer owning the hottest users needs far more state memory than
//! its siblings. A **static** split hands every reducer the same private
//! budget, so the hot reducer spills while the others sit on unused
//! slack. The **adaptive** governor pools the same global limit and
//! rebalances it on demand — the hot reducer escalates its lease before
//! spilling, borrowing the idle reducers' slack.
//!
//! For each reduce backend this experiment runs the identical job twice
//! (static vs adaptive, same global limit = per-reducer budget ×
//! reducers) and reports:
//!
//! * reduce-side spill traffic (bytes written + read) and the adaptive
//!   reduction — the headline metric (target: ≥25% on the skewed
//!   default workload);
//! * an order-insensitive fingerprint of the final output, which must be
//!   byte-identical between the two policies for every backend —
//!   governance must never change answers;
//! * governor activity (rebalances, sheds, push stalls, pool peak).
//!
//! Flags: `--records N` (default 200k clicks), `--reducers R` (4),
//! `--budget-kb K` per-reducer (0 = per-backend defaults, see
//! [`backends`]), `--skew S` (Zipf exponent, 1.0).

use onepass_bench::{arg_f64, arg_usize, pct, save};
use onepass_core::config::fmt_bytes;
use onepass_core::governor::MemoryPolicy;
use onepass_core::table::Table;
use onepass_core::KvBuf;
use onepass_groupby::EmitKind;
use onepass_runtime::map_task::Split;
use onepass_runtime::{CollectOutput, Engine, EngineConfig, JobReport, ReduceBackend, ShuffleMode};
use onepass_workloads::{make_splits, sessionization, ClickGen, ClickGenConfig};

/// Each backend with a per-reducer budget (KiB) placing the hot reducer's
/// footprint above its static quarter but inside the pooled global limit.
/// Sort-merge buffers raw shuffle segments (~28 B/click); the hash
/// backends keep holistic per-user state (~8 B/click), so their memory
/// pressure sits ~3x lower for the same input. Static and adaptive always
/// run at the *same* global limit within a pair.
fn backends() -> Vec<(&'static str, ReduceBackend, usize)> {
    vec![
        (
            "sort-merge",
            ReduceBackend::SortMerge {
                merge_factor: 8,
                snapshots: vec![],
            },
            1536,
        ),
        ("hybrid-hash", ReduceBackend::HybridHash { fanout: 8 }, 640),
        ("inc-hash", ReduceBackend::IncHash { early: None }, 640),
        ("freq-hash", ReduceBackend::FreqHash, 640),
    ]
}

/// Order-insensitive fingerprint of the job's final output.
fn output_fingerprint(report: &JobReport) -> u64 {
    let mut buf = KvBuf::new();
    for o in report.outputs.iter().filter(|o| o.kind == EmitKind::Final) {
        buf.push(0, &o.key, &o.value);
    }
    buf.unordered_fingerprint()
}

fn run_once(
    splits: &[Split],
    backend: &ReduceBackend,
    reducers: usize,
    budget_bytes: usize,
    policy: MemoryPolicy,
) -> JobReport {
    let job = sessionization::job()
        .reducers(reducers)
        .backend(backend.clone())
        .shuffle(ShuffleMode::Push { granularity: 64 })
        .collect_mode(CollectOutput::Collect)
        .reduce_budget_bytes(budget_bytes)
        // Disable the Hadoop segment-count merge trigger: this experiment
        // isolates *memory*-driven spilling, which is what governance moves.
        .inmem_merge_threshold(usize::MAX)
        .build()
        .expect("valid job");
    let cfg = EngineConfig::builder().memory_policy(policy).build();
    Engine::with_config(cfg)
        .run(&job, splits.to_vec())
        .expect("job failed")
}

fn main() {
    let records = arg_usize("records", 200_000);
    let reducers = arg_usize("reducers", 4);
    let budget_kb = arg_usize("budget-kb", 0); // 0 = per-backend defaults
    let skew = arg_f64("skew", 1.0);

    println!(
        "== adaptive governor vs static split: sessionization, Zipf({skew}) users, \
         {records} clicks, {reducers} reducers ==\n",
    );

    let mut gen = ClickGen::new(ClickGenConfig {
        user_skew: skew,
        ..Default::default()
    });
    let splits = make_splits(gen.text_records(records), records / 16 + 1);

    let mut table = Table::new(
        "Reduce-side spill traffic, static vs adaptive",
        &[
            "backend",
            "global limit",
            "static spill",
            "adaptive spill",
            "reduction",
            "rebalances",
            "sheds",
            "stalls",
            "pool peak",
            "output",
        ],
    );
    let mut csv = String::from(
        "backend,global_limit_bytes,static_spill_bytes,adaptive_spill_bytes,reduction_frac,\
         rebalances,sheds,shed_bytes,stalls,pool_high_water,outputs_match\n",
    );
    let mut total_static = 0u64;
    let mut total_adaptive = 0u64;
    let mut all_match = true;

    for (label, backend, default_kb) in backends() {
        let budget_bytes = if budget_kb > 0 { budget_kb } else { default_kb } * 1024;
        let static_rep = run_once(
            &splits,
            &backend,
            reducers,
            budget_bytes,
            MemoryPolicy::Static,
        );
        let adaptive_rep = run_once(
            &splits,
            &backend,
            reducers,
            budget_bytes,
            MemoryPolicy::Adaptive,
        );
        onepass_bench::append_report_jsonl(&static_rep.to_jsonl());
        onepass_bench::append_report_jsonl(&adaptive_rep.to_jsonl());

        let s = static_rep.reduce_spill_traffic();
        let a = adaptive_rep.reduce_spill_traffic();
        total_static += s;
        total_adaptive += a;
        let reduction = if s > 0 {
            1.0 - (a as f64 / s as f64)
        } else {
            0.0
        };
        let matches = output_fingerprint(&static_rep) == output_fingerprint(&adaptive_rep);
        all_match &= matches;

        table.row(&[
            label.to_string(),
            fmt_bytes((budget_bytes * reducers) as u64),
            fmt_bytes(s),
            fmt_bytes(a),
            pct(reduction),
            adaptive_rep.mem_rebalances.to_string(),
            adaptive_rep.mem_sheds.to_string(),
            adaptive_rep.backpressure_stalls.to_string(),
            fmt_bytes(adaptive_rep.mem_pool_high_water),
            if matches { "identical" } else { "DIVERGED" }.to_string(),
        ]);
        csv.push_str(&format!(
            "{label},{},{s},{a},{reduction:.4},{},{},{},{},{},{}\n",
            budget_bytes * reducers,
            adaptive_rep.mem_rebalances,
            adaptive_rep.mem_sheds,
            adaptive_rep.mem_shed_bytes,
            adaptive_rep.backpressure_stalls,
            adaptive_rep.mem_pool_high_water,
            matches,
        ));
    }

    println!("{}", table.to_text());
    let overall = if total_static > 0 {
        1.0 - (total_adaptive as f64 / total_static as f64)
    } else {
        0.0
    };
    println!(
        "Overall reduce-side spill: static {} -> adaptive {} ({} reduction).",
        fmt_bytes(total_static),
        fmt_bytes(total_adaptive),
        pct(overall),
    );
    println!(
        "Output fingerprints: {}.",
        if all_match {
            "byte-identical across all backends and policies"
        } else {
            "DIVERGENCE DETECTED — governance changed answers"
        }
    );
    save("exp_governor.csv", &csv);

    assert!(all_match, "adaptive governance changed job output");
}
