//! `serve-zipf`: an in-process `Server` with 200 tenants drawn by Zipf
//! over the standard catalog, all on one 64 MiB governor pool, each
//! repetition fed one shared click + doc stream. Closed loop: `feed`
//! blocks on backpressure. One thread feeds and one thread collects every
//! tenant's events.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crossbeam::channel::TryRecvError;
use onepass_core::obs::{MetricsRegistry, SampleValue};
use onepass_runtime::serve::{
    dump_final_answers, DlqConfig, QueryCatalog, ServeConfig, Server, TenantClose, TenantEvent,
    TenantHandle, TenantSession,
};
use onepass_runtime::stream::SessionOptions;
use onepass_workloads::serving::{
    ingest_family, standard_catalog, CatalogConfig, CLICKS_INGEST, DOCS_INGEST,
};
use onepass_workloads::tenantgen::{assign_tenants, TenantGenConfig, TenantSpec};
use onepass_workloads::{ClickGen, ClickGenConfig, DocGen, DocGenConfig};

use crate::harness::{median_layers, Probe, Sample};
use crate::spans::SpanLog;
use crate::stats::{jain, median, tail_percentile};
use crate::{Layers, Workload};

const TENANTS: usize = 200;
const CLICKS: usize = 3_000;
const BATCH: usize = 512;
const POOL_MB: usize = 64;
const ZIPF_S: f64 = 1.0;

/// Idle pause of the collector's `try_recv` sweep.
const SWEEP_IDLE: Duration = Duration::from_millis(1);

/// Feeds per run. Under pool pressure serving time is superlinear in the
/// feed, so one feed's time depends strongly on which clicks it drew;
/// repetitions cycle through several seeded feeds so a run's median
/// does not hinge on one draw.
const FEEDS: u64 = 4;

/// One shared click + doc feed and its per-query solo reference dumps.
struct Feed {
    clicks: Vec<Vec<u8>>,
    docs: Vec<Vec<u8>>,
    reference: HashMap<String, String>,
}

/// Tenants and the feeds the repetitions cycle through.
pub struct ServeZipf {
    catalog: QueryCatalog,
    specs: Vec<TenantSpec>,
    feeds: Vec<Feed>,
    /// Repetitions served so far; picks the next feed.
    served: u64,
    reported: Vec<Layers>,
}

/// What the collector brings home for one tenant.
#[derive(Default)]
struct Outcome {
    first_answer: Option<Duration>,
    final_at: Option<Duration>,
    early_answers: u64,
    close: Option<TenantClose>,
    error: Option<String>,
}

/// A solo (ungoverned, unmultiplexed) run of `query` — the reference a
/// served tenant must match byte for byte.
fn solo_dump(catalog: &QueryCatalog, query: &str, records: &[Vec<u8>]) -> Result<String, String> {
    let compiled = catalog.resolve(query).map_err(|e| e.to_string())?;
    let mut session = TenantSession::open(
        "solo",
        query,
        &compiled,
        &SessionOptions::default(),
        DlqConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    for chunk in records.chunks(BATCH) {
        session.feed(chunk).map_err(|e| e.to_string())?;
    }
    Ok(dump_final_answers(
        &session.close().map_err(|e| e.to_string())?.answers,
    ))
}

/// Sweep every handle with `try_recv` until each tenant has its Final
/// (or failed), stamping arrivals against `t0`.
fn collect(handles: Vec<TenantHandle>, t0: Instant) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = (0..handles.len()).map(|_| Outcome::default()).collect();
    let mut open: Vec<usize> = (0..handles.len()).collect();
    while !open.is_empty() {
        let mut progressed = false;
        open.retain(|&i| loop {
            let o = &mut out[i];
            match handles[i].events().try_recv() {
                Ok(TenantEvent::Early(a)) => {
                    progressed = true;
                    if !a.is_empty() {
                        o.first_answer.get_or_insert_with(|| t0.elapsed());
                        o.early_answers += a.len() as u64;
                    }
                }
                Ok(TenantEvent::Final(close)) => {
                    progressed = true;
                    let now = t0.elapsed();
                    if !close.answers.is_empty() {
                        o.first_answer.get_or_insert(now);
                    }
                    o.final_at = Some(now);
                    o.close = Some(close);
                    return false;
                }
                Ok(TenantEvent::Error(e)) => {
                    o.error = Some(e);
                    return false;
                }
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => {
                    o.error = Some("server went away before the final answers".into());
                    return false;
                }
            }
        });
        if !progressed {
            std::thread::sleep(SWEEP_IDLE);
        }
    }
    out
}

fn counter_total(registry: &MetricsRegistry, name: &str) -> u64 {
    registry
        .snapshot()
        .metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            SampleValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// Run `f` in a span when a log is given.
fn maybe_span<R>(log: &mut Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match log {
        Some(log) => log.scope(name, |_| f()),
        None => f(),
    }
}

impl Feed {
    /// Clicks and docs generated from `seed`, with a solo reference for
    /// each query the tenants use.
    fn new(catalog: &QueryCatalog, specs: &[TenantSpec], seed: u64) -> Result<Feed, String> {
        let clicks = ClickGen::new(ClickGenConfig {
            seed,
            ..ClickGenConfig::default()
        })
        .text_records(CLICKS);
        let docs = DocGen::new(DocGenConfig {
            seed,
            ..DocGenConfig::default()
        })
        .records(CLICKS / 100 + 1);
        let mut reference = HashMap::new();
        for s in specs {
            if !reference.contains_key(&s.query) {
                let records = if ingest_family(&s.query) == DOCS_INGEST {
                    &docs
                } else {
                    &clicks
                };
                reference.insert(s.query.clone(), solo_dump(catalog, &s.query, records)?);
            }
        }
        Ok(Feed {
            clicks,
            docs,
            reference,
        })
    }
}

impl ServeZipf {
    /// Generate the feeds and tenant draw from `seed`, compute a solo
    /// reference per feed and query in use, warm up once.
    pub fn new(seed: u64) -> Result<ServeZipf, String> {
        let catalog = standard_catalog(CatalogConfig::default());
        // The tenant draw keeps the generator's own seed, so every
        // `--seed` serves the same query mix; the seed varies the feed.
        let specs = assign_tenants(
            TENANTS,
            &catalog.names(),
            &TenantGenConfig {
                zipf_s: ZIPF_S,
                ..TenantGenConfig::default()
            },
        );
        let feeds = (0..FEEDS)
            .map(|i| Feed::new(&catalog, &specs, seed.wrapping_mul(FEEDS).wrapping_add(i)))
            .collect::<Result<_, _>>()?;
        let mut w = ServeZipf {
            catalog,
            specs,
            feeds,
            served: 0,
            reported: Vec::new(),
        };
        if w.served(None)?.0.failed > 0 {
            return Err("serve-zipf: warm-up finals differ from the solo references".into());
        }
        Ok(w)
    }

    /// Feed clicks in `BATCH` chunks with docs interleaved
    /// proportionally; returns seconds spent blocked in `feed`.
    fn feed(
        &self,
        feed: &Feed,
        server: &Server,
        log: &mut Option<&mut SpanLog>,
    ) -> Result<f64, String> {
        let mut blocked = 0.0;
        let mut send = |family: &str, chunk: &[Vec<u8>]| -> Result<(), String> {
            let t = Instant::now();
            maybe_span(log, "serve.feed", || server.feed(family, chunk.to_vec()))
                .map_err(|e| e.to_string())?;
            blocked += t.elapsed().as_secs_f64();
            Ok(())
        };
        let (clicks, docs) = (&feed.clicks, &feed.docs);
        let mut docs_fed = 0;
        for (i, chunk) in clicks.chunks(BATCH).enumerate() {
            send(CLICKS_INGEST, chunk)?;
            let due = docs.len() * ((i + 1) * BATCH).min(clicks.len()) / clicks.len();
            while docs_fed < due {
                let n = BATCH.min(due - docs_fed);
                send(DOCS_INGEST, &docs[docs_fed..docs_fed + n])?;
                docs_fed += n;
            }
        }
        for chunk in docs[docs_fed..].chunks(BATCH) {
            send(DOCS_INGEST, chunk)?;
        }
        Ok(blocked)
    }

    /// One served run: start, subscribe everyone, feed, close, collect,
    /// check. With a log, each step is a span.
    fn served(&mut self, mut log: Option<&mut SpanLog>) -> Result<(Sample, Layers), String> {
        let feed = &self.feeds[(self.served % FEEDS) as usize];
        self.served += 1;
        let registry = MetricsRegistry::new();
        let mut config = ServeConfig {
            pool_bytes: POOL_MB << 20,
            ..ServeConfig::default()
        };
        config.admission.max_tenants = config.admission.max_tenants.max(TENANTS);

        let probe = Probe::start();
        let server = maybe_span(&mut log, "serve.start", || {
            Server::start(config, self.catalog.clone(), Some(registry.clone()))
        })
        .map_err(|e| e.to_string())?;
        let mut failed = 0u64;
        let mut handles = Vec::with_capacity(TENANTS);
        let mut admitted = Vec::with_capacity(TENANTS);
        maybe_span(&mut log, "serve.subscribe", || {
            for s in &self.specs {
                match server.subscribe(&s.id, &s.query) {
                    Ok(h) => {
                        handles.push(h);
                        admitted.push(s);
                    }
                    Err(e) => {
                        eprintln!("tenant {} not admitted: {e}", s.id);
                        failed += 1;
                    }
                }
            }
        });

        let t0 = Instant::now();
        let collector = std::thread::Builder::new()
            .name("perfbench-collect".into())
            .spawn(move || collect(handles, t0))
            .map_err(|e| e.to_string())?;
        let fed = self.feed(feed, &server, &mut log);
        let closed = maybe_span(&mut log, "serve.close", || server.close());
        let outcomes = maybe_span(&mut log, "serve.drain", || collector.join())
            .map_err(|_| "collector thread panicked".to_string())?;
        let cpu_s = probe.cpu_s();
        let peak_heap_mb = probe.peak_heap_mb();
        let feed_block_s = fed?;
        closed.map_err(|e| e.to_string())?;

        let mut wall = Duration::ZERO;
        let mut ttfa = Vec::with_capacity(outcomes.len());
        let (mut early, mut dead, mut groups, mut spill) = (0u64, 0u64, 0u64, 0u64);
        for (o, h) in outcomes.iter().zip(admitted) {
            let ok = match (&o.close, &o.error) {
                (Some(close), None) => {
                    dump_final_answers(&close.answers) == feed.reference[&h.query]
                }
                _ => false,
            };
            if !ok {
                eprintln!(
                    "tenant {} ({}) {}",
                    h.id,
                    h.query,
                    o.error
                        .as_deref()
                        .unwrap_or("diverged from its solo reference")
                );
                failed += 1;
            }
            if let Some(close) = &o.close {
                dead += close.dlq_dead;
                groups += close.stats.iter().map(|s| s.groups_out).sum::<u64>();
                spill += close.stats.iter().map(|s| s.io.bytes_written).sum::<u64>();
            }
            wall = wall.max(o.final_at.unwrap_or_default());
            ttfa.extend(o.first_answer.map(|d| d.as_secs_f64()));
            early += o.early_answers;
        }
        let admission = server.admission_counters();
        let gov = server.governor().counters();
        let layers = Layers::from([
            ("serve.admitted", admission.admitted as f64),
            ("serve.rejected", admission.rejected as f64),
            ("serve.dlq_dead", dead as f64),
            ("serve.early_answers", early as f64),
            ("serve.feed_block_s", feed_block_s),
            ("serve.ttfa_jain", jain(&ttfa).unwrap_or(0.0)),
            ("governor.sheds", gov.sheds as f64),
            (
                "governor.shed_mb",
                gov.shed_bytes_requested as f64 / (1 << 20) as f64,
            ),
            (
                "governor.pool_peak_mb",
                server.governor().pool().high_water() as f64 / (1 << 20) as f64,
            ),
            (
                "governor.stalls",
                counter_total(&registry, "onepass_serve_backpressure_stalls_total") as f64,
            ),
            ("groupby.groups", groups as f64),
            ("groupby.spill_mb", spill as f64 / (1 << 20) as f64),
        ]);
        let sample = Sample {
            wall_s: wall.as_secs_f64(),
            ttfa_s: median(&ttfa).ok_or("no tenant answered")?,
            ttfa_p95_s: tail_percentile(&ttfa, 0.95)
                .ok_or("too few answering tenants for a p95")?,
            cpu_s,
            peak_heap_mb,
            attempted: TENANTS as u64,
            failed,
        };
        Ok((sample, layers))
    }
}

impl Workload for ServeZipf {
    fn describe(&self) -> String {
        format!(
            "{TENANTS} tenants (zipf s={ZIPF_S}) over {} queries, {FEEDS} feeds of {CLICKS} clicks + {} docs in batches of {BATCH}, one {POOL_MB} MiB pool",
            self.feeds[0].reference.len(),
            self.feeds[0].docs.len()
        )
    }

    fn rep(&mut self, traced: bool) -> Result<Sample, String> {
        let (sample, layers) = self.served(None)?;
        if traced {
            self.reported.push(layers);
        }
        Ok(sample)
    }

    fn replay(&mut self, log: &mut SpanLog) -> Result<(f64, Layers), String> {
        let (sample, _) = self.served(Some(log))?;
        if sample.failed > 0 {
            return Err(format!(
                "serve-zipf: {} tenant(s) failed in the replay",
                sample.failed
            ));
        }
        Ok((sample.wall_s, Layers::new()))
    }

    fn reported(&self) -> Layers {
        median_layers(&self.reported)
    }
}
