//! `pagerank-cached`: `pagerank::run_cached` over a seeded graph. Cache
//! hits, zero-copy cached splits and the round-boundary zip-merge carry
//! the run; text map decode happens only in the parse round.

use std::time::Instant;

use onepass_core::trace::{complete_spans, Tracer};
use onepass_runtime::{CacheConfig, DatasetCache, Engine, EngineConfig};
use onepass_workloads::pagerank::{self, GraphConfig, PageRankConfig, Ranks, RANKS_DATASET};

use crate::harness::{median_layers, Probe, Sample};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::{Layers, Workload};

const NODES: usize = 50_000;
const MAX_OUT: usize = 4;
const ROUNDS: usize = 10;
const REDUCERS: usize = 2;

/// The graph, the loop's knobs and the reference ranks.
pub struct PageRank {
    records: Vec<Vec<u8>>,
    cfg: PageRankConfig,
    reference: Ranks,
    /// Cache counters of each traced repetition.
    reported: Vec<Layers>,
}

impl PageRank {
    /// Generate the graph from `seed`, compute `pagerank::reference`,
    /// warm up once.
    pub fn new(seed: u64) -> Result<PageRank, String> {
        let records = pagerank::graph_records(GraphConfig {
            nodes: NODES,
            max_out: MAX_OUT,
            seed,
        });
        let mut cfg = PageRankConfig::new(NODES);
        cfg.rounds = ROUNDS;
        cfg.eps = None;
        cfg.reducers = REDUCERS;
        let (reference, rounds) = pagerank::reference(&records, &cfg);
        if rounds != ROUNDS {
            return Err(format!("reference ran {rounds} rounds, expected {ROUNDS}"));
        }
        let mut p = PageRank {
            records,
            cfg,
            reference,
            reported: Vec::new(),
        };
        if p.rep(false)?.failed > 0 {
            return Err("pagerank-cached: warm-up ranks differ from the reference".into());
        }
        Ok(p)
    }

    fn run(&self, engine: &Engine, cache: &DatasetCache) -> Result<(Ranks, usize), String> {
        pagerank::run_cached(engine, cache, &self.records, &self.cfg).map_err(|e| e.to_string())
    }

    fn check(&self, ranks: &Ranks, rounds: usize) -> u64 {
        let ok = rounds == ROUNDS && *ranks == self.reference;
        if !ok {
            eprintln!("pagerank-cached: ranks differ from the reference ({rounds} rounds)");
        }
        u64::from(!ok)
    }
}

impl Workload for PageRank {
    fn describe(&self) -> String {
        format!(
            "{NODES} nodes (max out-degree {MAX_OUT}), {ROUNDS} rounds, {REDUCERS} reducers, cached"
        )
    }

    fn rep(&mut self, traced: bool) -> Result<Sample, String> {
        let engine = Engine::new();
        let cache = DatasetCache::new(CacheConfig::default());
        let probe = Probe::start();
        let t0 = Instant::now();
        let (ranks, rounds) = self.run(&engine, &cache)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = probe.cpu_s();
        let peak_heap_mb = probe.peak_heap_mb();
        if traced {
            let s = cache.stats();
            self.reported.push(Layers::from([
                ("cache.hits", s.hits as f64),
                ("cache.evictions", s.evictions as f64),
                ("cache.reloads", s.reloads as f64),
                (
                    "cache.resident_mb",
                    s.resident_bytes as f64 / (1 << 20) as f64,
                ),
            ]));
        }
        Ok(Sample {
            wall_s,
            // Ranks exist only once the last round merges: the first
            // answer is the whole answer.
            ttfa_s: wall_s,
            ttfa_p95_s: wall_s,
            cpu_s,
            peak_heap_mb,
            attempted: 1,
            failed: self.check(&ranks, rounds),
        })
    }

    fn replay(&mut self, log: &mut SpanLog) -> Result<(f64, Layers), String> {
        let tracer = Tracer::enabled();
        let engine = Engine::with_config(EngineConfig::builder().tracer(tracer.clone()).build());
        let cache = DatasetCache::new(CacheConfig::default());
        // The engine stamps events from its tracer's epoch; map them
        // onto the span log's clock.
        let epoch = log.offset(Instant::now()).saturating_sub(tracer.elapsed());
        let mut rounds_s = Vec::new();
        let mut traced_wall = 0.0;
        let (ranks, rounds) = log.scope("plan.run_cached", |log| {
            let t0 = Instant::now();
            let out = self.run(&engine, &cache)?;
            traced_wall = t0.elapsed().as_secs_f64();
            let spans = complete_spans(&tracer.drain()).map_err(|e| e.to_string())?;
            for s in spans.iter().filter(|s| s.name == "stage") {
                log.graft("plan.round", epoch + s.start, epoch + s.end);
                rounds_s.push(s.duration().as_secs_f64());
            }
            Ok::<_, String>(out)
        })?;
        if self.check(&ranks, rounds) > 0 {
            return Err("pagerank-cached: replay ranks differ from the reference".into());
        }
        if rounds_s.len() != ROUNDS {
            return Err(format!(
                "expected {ROUNDS} traced rounds, saw {}",
                rounds_s.len()
            ));
        }
        // The cache layer on the loop's own resident state.
        let parts = log
            .scope("cache.get", |_| cache.get(RANKS_DATASET))
            .map_err(|e| e.to_string())?
            .ok_or("ranks dataset missing after the loop")?;
        log.scope("cache.put", |_| cache.put(RANKS_DATASET, parts))
            .map_err(|e| e.to_string())?;
        Ok((
            traced_wall,
            Layers::from([("plan.round_s", median(&rounds_s).unwrap_or(0.0))]),
        ))
    }

    fn reported(&self) -> Layers {
        median_layers(&self.reported)
    }
}
