//! Multi-tenant serving at scale: one pool, a thousand tenants.
//!
//! Boots the in-process serving core (`runtime::serve`) with the
//! standard query catalog, admits `--tenants` concurrent subscribers
//! assigned to queries by a Zipf draw (the realistic case: a few hot
//! queries, a long tail), and streams one shared synthetic feed — clicks
//! plus documents — through all of them under a single job-wide memory
//! governor pool. Every tenant runs its own plan instance; the pool's
//! round-robin shed rotation arbitrates pressure *across* tenants.
//!
//! Reported:
//!
//! * **TTFA** (time to first answer) per tenant, p50/p99, measured
//!   client-side from subscription to the first early/final answer;
//! * **Jain's fairness index** over per-tenant TTFA — 1.0 means every
//!   tenant saw its first answer equally fast, the fair-share admission
//!   story in one number;
//! * **byte-identity**: each tenant's finals are compared against a solo
//!   (ungoverned, unmultiplexed) run of its query over the same records.
//!   Any divergence fails the experiment — multiplexing must never
//!   change answers.
//!
//! Flags: `--tenants N` (default 1000), `--records N` clicks (5000),
//! `--doc-records N` (records/100+1), `--batch B` (512), `--pool-mb MB`
//! (64), `--shards S` (4), `--zipf S` (1.0).

use std::sync::Arc;
use std::time::{Duration, Instant};

use onepass_bench::{arg_f64, arg_usize, save};
use onepass_core::config::{fmt_bytes, fmt_secs};
use onepass_runtime::serve::{
    dump_final_answers, DlqConfig, ServeConfig, Server, TenantEvent, TenantSession,
};
use onepass_runtime::stream::SessionOptions;
use onepass_workloads::serving::{
    ingest_family, standard_catalog, CatalogConfig, CLICKS_INGEST, DOCS_INGEST,
};
use onepass_workloads::tenantgen::{assign_tenants, TenantGenConfig};
use onepass_workloads::{ClickGen, ClickGenConfig, DocGen, DocGenConfig};

/// What one tenant's collector thread brings home.
struct Outcome {
    query: String,
    ttfa: Option<Duration>,
    dump: String,
    error: Option<String>,
}

fn main() {
    let tenants = arg_usize("tenants", 1000);
    let records = arg_usize("records", 5_000);
    let doc_records = arg_usize("doc-records", records / 100 + 1);
    let batch = arg_usize("batch", 512).max(1);
    let pool_mb = arg_usize("pool-mb", 64);
    let shards = arg_usize("shards", 4).max(1);
    let zipf = arg_f64("zipf", 1.0);

    let catalog = standard_catalog(CatalogConfig::default());
    let clicks = ClickGen::new(ClickGenConfig::default()).text_records(records);
    let docs = DocGen::new(DocGenConfig::default()).records(doc_records);

    println!("== exp_serving: {tenants} tenants over one {pool_mb} MiB pool ==");
    println!(
        "   {} click + {} doc records, batch {batch}, {shards} shard(s), zipf s={zipf}\n",
        clicks.len(),
        docs.len()
    );

    let mut config = ServeConfig {
        pool_bytes: pool_mb << 20,
        shards,
        ..ServeConfig::default()
    };
    config.admission.max_tenants = tenants.max(config.admission.max_tenants);
    let server = Arc::new(Server::start(config, catalog.clone(), None).expect("start server"));

    let specs = assign_tenants(
        tenants,
        &catalog.names(),
        &TenantGenConfig {
            zipf_s: zipf,
            ..TenantGenConfig::default()
        },
    );

    // Subscribe everyone, with one lightweight collector thread per
    // tenant stamping the arrival of its first answer.
    let t_subscribe = Instant::now();
    let collectors: Vec<std::thread::JoinHandle<Outcome>> = specs
        .iter()
        .map(|spec| {
            let handle = server
                .subscribe(&spec.id, &spec.query)
                .expect("admit tenant");
            let query = spec.query.clone();
            let subscribed = Instant::now();
            std::thread::Builder::new()
                .name(format!("collect-{}", spec.id))
                .stack_size(256 * 1024)
                .spawn(move || {
                    let mut ttfa = None;
                    loop {
                        match handle.events().recv() {
                            Ok(TenantEvent::Early(a)) => {
                                if ttfa.is_none() && !a.is_empty() {
                                    ttfa = Some(subscribed.elapsed());
                                }
                            }
                            Ok(TenantEvent::Final(close)) => {
                                if ttfa.is_none() && !close.answers.is_empty() {
                                    ttfa = Some(subscribed.elapsed());
                                }
                                return Outcome {
                                    query,
                                    ttfa,
                                    dump: dump_final_answers(&close.answers),
                                    error: None,
                                };
                            }
                            Ok(TenantEvent::Error(e)) => {
                                return Outcome {
                                    query,
                                    ttfa,
                                    dump: String::new(),
                                    error: Some(e),
                                };
                            }
                            Err(_) => {
                                return Outcome {
                                    query,
                                    ttfa,
                                    dump: String::new(),
                                    error: Some("server went away before close".into()),
                                };
                            }
                        }
                    }
                })
                .expect("spawn collector")
        })
        .collect();
    println!(
        "subscribed {} tenant(s) in {}",
        server.active_tenants(),
        fmt_secs(t_subscribe.elapsed().as_secs_f64())
    );

    // One shared stream, interleaved proportionally.
    let t_feed = Instant::now();
    let mut docs_fed = 0usize;
    for (i, chunk) in clicks.chunks(batch).enumerate() {
        server
            .feed(CLICKS_INGEST, chunk.to_vec())
            .expect("feed clicks");
        let due = docs.len() * ((i + 1) * batch).min(clicks.len()) / clicks.len().max(1);
        while docs_fed < due {
            let n = batch.min(due - docs_fed);
            server
                .feed(DOCS_INGEST, docs[docs_fed..docs_fed + n].to_vec())
                .expect("feed docs");
            docs_fed += n;
        }
    }
    while docs_fed < docs.len() {
        let n = batch.min(docs.len() - docs_fed);
        server
            .feed(DOCS_INGEST, docs[docs_fed..docs_fed + n].to_vec())
            .expect("feed docs");
        docs_fed += n;
    }
    server.close().expect("close server");
    let wall = t_feed.elapsed();

    let outcomes: Vec<Outcome> = collectors
        .into_iter()
        .map(|c| c.join().expect("collector thread"))
        .collect();

    // Solo references, one per distinct query over the same records.
    let mut diverged = 0usize;
    let mut failed = 0usize;
    for query in catalog.names() {
        let of_query: Vec<&Outcome> = outcomes.iter().filter(|o| o.query == query).collect();
        if of_query.is_empty() {
            continue;
        }
        let reference = solo_dump(
            &catalog,
            &query,
            if ingest_family(&query) == DOCS_INGEST {
                &docs
            } else {
                &clicks
            },
        );
        let bad = of_query
            .iter()
            .filter(|o| o.error.is_none() && o.dump != reference)
            .count();
        let errs = of_query.iter().filter(|o| o.error.is_some()).count();
        diverged += bad;
        failed += errs;
        println!(
            "{query:<16} {:>5} tenant(s)  identical to solo: {}",
            of_query.len(),
            if bad == 0 && errs == 0 {
                "yes".to_string()
            } else {
                format!("NO ({bad} diverged, {errs} failed)")
            }
        );
    }

    let mut ttfas: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.ttfa.map(|d| d.as_secs_f64()))
        .collect();
    ttfas.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| ttfas[((ttfas.len() - 1) as f64 * p).round() as usize];
    let jain = {
        let sum: f64 = ttfas.iter().sum();
        let sq: f64 = ttfas.iter().map(|x| x * x).sum();
        (sum * sum) / (ttfas.len() as f64 * sq).max(f64::MIN_POSITIVE)
    };
    let counters = server.admission_counters();

    println!();
    println!(
        "ingest wall:       {} ({} records through every matching tenant)",
        fmt_secs(wall.as_secs_f64()),
        server.ingest_records()
    );
    println!(
        "ttfa:              p50 {} p99 {} over {} tenant(s)",
        fmt_secs(pct(0.50)),
        fmt_secs(pct(0.99)),
        ttfas.len()
    );
    println!("jain fairness:     {jain:.3} (1.0 = perfectly even)");
    println!(
        "admission:         {} admitted, {} queued, {} rejected; pool {}",
        counters.admitted,
        counters.queued,
        counters.rejected,
        fmt_bytes((pool_mb << 20) as u64)
    );

    let mut csv = String::from("query,tenants,ttfa_p50_s,ttfa_p99_s,jain,identical\n");
    for query in catalog.names() {
        let of_query: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.query == query)
            .filter_map(|o| o.ttfa.map(|d| d.as_secs_f64()))
            .collect();
        if of_query.is_empty() {
            continue;
        }
        let mut qs = of_query.clone();
        qs.sort_by(|a, b| a.total_cmp(b));
        let qp = |p: f64| qs[((qs.len() - 1) as f64 * p).round() as usize];
        csv.push_str(&format!(
            "{query},{},{:.6},{:.6},{jain:.4},{}\n",
            qs.len(),
            qp(0.50),
            qp(0.99),
            (diverged == 0) as u8
        ));
    }
    save("serving.csv", &csv);

    if diverged > 0 || failed > 0 {
        eprintln!("FAILED: {diverged} diverged, {failed} errored");
        std::process::exit(1);
    }
}

/// A solo (ungoverned, unmultiplexed) run of `query` over `records` —
/// the reference every served tenant must match byte-for-byte.
fn solo_dump(
    catalog: &onepass_runtime::serve::QueryCatalog,
    query: &str,
    records: &[Vec<u8>],
) -> String {
    let compiled = catalog.resolve(query).expect("known query");
    let mut session = TenantSession::open(
        "solo",
        query,
        &compiled,
        &SessionOptions::default(),
        DlqConfig::default(),
    )
    .expect("open solo session");
    for chunk in records.chunks(512) {
        session.feed(chunk).expect("solo feed");
    }
    dump_final_answers(&session.close().expect("solo close").answers)
}
