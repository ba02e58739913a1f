//! Batch workloads through `Engine::run`: `pagefreq` (in-proc, in-node
//! combining carries the run) and `sessions-tcp` (no combiner, every
//! record crosses the framed TCP fabric to two loopback workers).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use onepass_core::hashlib::fingerprint;
use onepass_core::io::SharedMemStore;
use onepass_core::memory::MemoryBudget;
use onepass_core::obs::{MetricsRegistry, SampleValue};
use onepass_core::trace::Tracer;
use onepass_core::{KvBuf, SegmentBuf, SegmentBufBuilder};
use onepass_groupby::{EmitKind, FreqHashGrouper, GroupBy, IncHashGrouper, Sink};
use onepass_runtime::transport::worker::{spawn_local, WorkerHandle};
use onepass_runtime::{
    CollectOutput, Engine, EngineConfig, JobRegistry, JobReport, JobSpec, MapEmitter, TaskKind,
    Transport, WorkerOptions,
};
use onepass_workloads::clickgen::Click;
use onepass_workloads::{make_splits, page_frequency, sessionization, ClickGen, ClickGenConfig};

use crate::harness::{median_layers, Probe, Sample};
use crate::spans::SpanLog;
use crate::stats::tail_percentile;
use crate::{Layers, Workload};

/// Click records in `pagefreq`.
const PAGEFREQ_RECORDS: usize = 2_000_000;
/// Click records in `sessions-tcp`. The job's work (about 0.37 s on two
/// cores) ends midway between two 250 ms coordinator heartbeat ticks, so
/// the tick shows in every repetition's `wall_s` without host drift
/// flipping the median between two and three ticks.
const SESSIONS_RECORDS: usize = 750_000;
/// Map splits per input (the CLI's `records / 16 + 1` split size).
const SPLITS: usize = 16;
/// Reduce tasks.
const REDUCERS: usize = 2;
/// Loopback workers and map slots per worker for `sessions-tcp`.
const TCP_WORKERS: usize = 2;

/// Final output pairs, sorted.
type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// A batch job, its input and its reference answer.
pub struct Batch {
    name: &'static str,
    job: JobSpec,
    records: Vec<Vec<u8>>,
    per_split: usize,
    reference: Pairs,
    /// Loopback TCP workers (empty = in-proc fabric).
    workers: Vec<WorkerHandle>,
    /// Replay the in-node combiner (jobs the engine combines in-node).
    in_node: bool,
    /// Per traced repetition: values read from the engine's reports.
    reported: Vec<Layers>,
}

fn clicks(seed: u64, n: usize) -> Vec<Vec<u8>> {
    ClickGen::new(ClickGenConfig {
        seed,
        ..ClickGenConfig::default()
    })
    .text_records(n)
}

fn finals(report: &JobReport) -> Pairs {
    let mut v: Pairs = report
        .outputs
        .iter()
        .filter(|o| o.kind == EmitKind::Final)
        .map(|o| (o.key.clone(), o.value.clone()))
        .collect();
    v.sort_unstable();
    v
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

fn last_end(report: &JobReport, kind: TaskKind) -> Duration {
    report
        .task_spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.end)
        .max()
        .unwrap_or_default()
}

impl Batch {
    /// `page_frequency::job()`, onepass preset, in-proc, 2M Zipf clicks;
    /// the reference is a plain single-threaded URL count.
    pub fn pagefreq(seed: u64) -> Result<Batch, String> {
        let records = clicks(seed, PAGEFREQ_RECORDS);
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for r in &records {
            let c = Click::from_text(r).ok_or("unparseable click")?;
            *counts.entry(c.url).or_default() += 1;
        }
        let mut reference: Pairs = counts
            .into_iter()
            .map(|(url, n)| (url.to_le_bytes().to_vec(), n.to_le_bytes().to_vec()))
            .collect();
        reference.sort_unstable();
        let job = page_frequency::job()
            .reducers(REDUCERS)
            .collect_mode(CollectOutput::Collect)
            .preset_onepass()
            .build()
            .map_err(|e| e.to_string())?;
        Batch::warmed("pagefreq", job, records, reference, Vec::new(), true)
    }

    /// `sessionization::job()` (no combiner), onepass preset, shuffled
    /// over TCP to two loopback workers with one map slot each; the
    /// reference is an in-proc `preset_hadoop` run of the same input.
    pub fn sessions_tcp(seed: u64) -> Result<Batch, String> {
        let records = clicks(seed, SESSIONS_RECORDS);
        let per_split = records.len() / SPLITS + 1;
        let hadoop = sessionization::job()
            .reducers(REDUCERS)
            .collect_mode(CollectOutput::Collect)
            .preset_hadoop()
            .build()
            .map_err(|e| e.to_string())?;
        let report = Engine::new()
            .run(&hadoop, make_splits(records.clone(), per_split))
            .map_err(|e| e.to_string())?;
        let reference = finals(&report);
        let job = sessionization::job()
            .reducers(REDUCERS)
            .collect_mode(CollectOutput::Collect)
            .preset_onepass()
            .build()
            .map_err(|e| e.to_string())?;
        let registry = JobRegistry::new();
        registry.register_spec(job.clone());
        let workers = (0..TCP_WORKERS)
            .map(|_| {
                spawn_local(
                    registry.clone(),
                    WorkerOptions {
                        map_slots: 1,
                        die_after_maps: None,
                    },
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Batch::warmed("sessions-tcp", job, records, reference, workers, false)
    }

    fn warmed(
        name: &'static str,
        job: JobSpec,
        records: Vec<Vec<u8>>,
        reference: Pairs,
        workers: Vec<WorkerHandle>,
        in_node: bool,
    ) -> Result<Batch, String> {
        let per_split = records.len() / SPLITS + 1;
        let mut b = Batch {
            name,
            job,
            records,
            per_split,
            reference,
            workers,
            in_node,
            reported: Vec::new(),
        };
        let warm = b.rep(false)?;
        if warm.failed > 0 {
            return Err(format!("{name}: warm-up output differs from the reference"));
        }
        Ok(b)
    }

    fn transport(&self) -> Transport {
        if self.workers.is_empty() {
            Transport::InProc
        } else {
            Transport::Tcp {
                workers: self.workers.iter().map(|w| w.addr().to_string()).collect(),
            }
        }
    }

    /// Run once on `transport`, with the engine's tracer on when
    /// `traced`; returns the report and the wall seconds around
    /// `Engine::run`, with the CPU/heap probe.
    fn run_once(
        &self,
        transport: Transport,
        traced: bool,
    ) -> Result<(JobReport, f64, Probe, MetricsRegistry), String> {
        let splits = make_splits(self.records.clone(), self.per_split);
        let registry = MetricsRegistry::new();
        let engine = Engine::with_config(
            EngineConfig::builder()
                .transport(transport)
                .metrics(registry.clone())
                .tracer(Tracer::new(traced))
                .build(),
        );
        let probe = Probe::start();
        let t0 = Instant::now();
        let report = engine.run(&self.job, splits).map_err(|e| e.to_string())?;
        let wall = t0.elapsed().as_secs_f64();
        Ok((report, wall, probe, registry))
    }
}

impl Workload for Batch {
    fn describe(&self) -> String {
        format!(
            "{} records in {} splits, {} reducers, {} backend, {}",
            self.records.len(),
            self.records.len().div_ceil(self.per_split),
            self.job.reducers,
            self.job.backend.label(),
            if self.workers.is_empty() {
                "in-proc fabric".to_string()
            } else {
                format!("TCP fabric to {} loopback workers", self.workers.len())
            }
        )
    }

    fn rep(&mut self, traced: bool) -> Result<Sample, String> {
        let (report, wall_s, probe, registry) = self.run_once(self.transport(), false)?;
        let cpu_s = probe.cpu_s();
        let peak_heap_mb = probe.peak_heap_mb();
        let out = finals(&report);
        let failed = u64::from(out != self.reference);
        if failed > 0 {
            eprintln!(
                "{}: output differs from the reference ({} vs {} groups)",
                self.name,
                out.len(),
                self.reference.len()
            );
        }
        let first = [report.first_early_at, report.first_final_at]
            .into_iter()
            .flatten()
            .min()
            .ok_or("no answer at all")?;
        let at: Vec<f64> = report
            .outputs
            .iter()
            .filter(|o| o.kind == EmitKind::Final)
            .map(|o| o.at.as_secs_f64())
            .collect();
        let ttfa_p95_s = tail_percentile(&at, 0.95).ok_or("too few answers for a p95")?;

        if traced {
            let wall = report.wall.as_secs_f64();
            let mut l = Layers::new();
            if self.in_node {
                l.insert(
                    "in_node.combine_ratio",
                    report.shuffled_records as f64 / report.map_output_records.max(1) as f64,
                );
            }
            l.insert(
                "in_node.post_map_tail_s",
                wall - last_end(&report, TaskKind::Map).as_secs_f64(),
            );
            l.insert("shuffle.records", report.shuffled_records as f64);
            l.insert("shuffle.bytes", report.shuffled_bytes as f64);
            l.insert("shuffle.stalls", report.backpressure_stalls as f64);
            l.insert("governor.sheds", report.mem_sheds as f64);
            l.insert(
                "governor.shed_mb",
                report.mem_shed_bytes as f64 / (1 << 20) as f64,
            );
            l.insert(
                "governor.pool_peak_mb",
                report.mem_pool_high_water as f64 / (1 << 20) as f64,
            );
            if !self.workers.is_empty() {
                l.insert(
                    "transport.bytes",
                    counter_total(&registry, "onepass_transport_bytes_total") as f64,
                );
                l.insert(
                    "transport.close_wait_s",
                    wall - last_end(&report, TaskKind::Reduce).as_secs_f64(),
                );
                // The same job on the in-proc fabric, same input.
                let (inproc, inproc_wall, _, _) = self.run_once(Transport::InProc, false)?;
                if finals(&inproc) != self.reference {
                    return Err(format!(
                        "{}: in-proc output differs from the reference",
                        self.name
                    ));
                }
                l.insert("transport.extra_s", wall_s - inproc_wall);
            }
            self.reported.push(l);
        }
        Ok(Sample {
            wall_s,
            ttfa_s: first.as_secs_f64(),
            ttfa_p95_s,
            cpu_s,
            peak_heap_mb,
            attempted: 1,
            failed,
        })
    }

    fn replay(&mut self, log: &mut SpanLog) -> Result<(f64, Layers), String> {
        // The end-to-end call with the engine's own tracer on.
        let (report, traced_wall, _, _) = self.run_once(self.transport(), true)?;
        if finals(&report) != self.reference {
            return Err(format!(
                "{}: traced output differs from the reference",
                self.name
            ));
        }

        let job = &self.job;
        let reducers = job.reducers;
        let mut layers = Layers::new();

        // Map: the workload's MapFn into one KvBuf per split.
        let bufs: Vec<KvBuf> = log.scope("map", |_| {
            self.records
                .chunks(self.per_split)
                .map(|split| {
                    let mut buf = KvBuf::new();
                    let mut emit = KvEmit(&mut buf);
                    for r in split {
                        job.map_fn.map(r, &mut emit);
                    }
                    buf
                })
                .collect()
        });
        layers.insert("map.records", self.records.len() as f64);
        layers.insert(
            "map.out_bytes",
            bufs.iter().map(|b| b.arena_bytes() as f64).sum(),
        );

        // Partition: fingerprint once, route with the job's partitioner,
        // one segment per (split, partition) as the shuffle carries them.
        let mut segments: Vec<Vec<SegmentBuf>> = log.scope("partition", |_| {
            let mut per_part: Vec<Vec<SegmentBuf>> = vec![Vec::new(); reducers];
            for buf in &bufs {
                let mut builders: Vec<SegmentBufBuilder> =
                    (0..reducers).map(|_| SegmentBufBuilder::new()).collect();
                for (_, key, value) in buf.iter() {
                    let p = job
                        .partitioner
                        .partition_fp(fingerprint(key), key, reducers);
                    builders[p].push(key, value);
                }
                for (p, b) in builders.into_iter().enumerate() {
                    per_part[p].push(b.finish());
                }
            }
            per_part
        });
        drop(bufs);

        let budget = job.reduce_budget_bytes;
        let grouper = |agg| -> Box<dyn GroupBy> {
            Box::new(FreqHashGrouper::new(
                Arc::new(SharedMemStore::new()),
                MemoryBudget::new(budget),
                agg,
            ))
        };

        // In-node combine: one hash combine per partition over every
        // split's output, shipped as one combined segment.
        if self.in_node {
            segments = log.scope("in_node", |_| {
                segments
                    .iter()
                    .map(|segs| {
                        let mut table = IncHashGrouper::new(
                            Arc::new(SharedMemStore::new()),
                            MemoryBudget::new(budget),
                            Arc::clone(&job.agg),
                        );
                        let mut out = BuildSink(SegmentBufBuilder::new());
                        for s in segs {
                            table.push_batch(s, &mut out).map_err(|e| e.to_string())?;
                        }
                        table.finish(&mut out).map_err(|e| e.to_string())?;
                        Ok(vec![out.0.finish()])
                    })
                    .collect::<Result<_, String>>()
            })?;
        }

        // Group-by: the job's reduce backend over the shuffled segments.
        let mut groupers: Vec<Box<dyn GroupBy>> = (0..reducers)
            .map(|_| grouper(Arc::clone(&job.agg)))
            .collect();
        let mut sink = CountFinal(0);
        log.scope("groupby.push", |_| {
            for (g, segs) in groupers.iter_mut().zip(&segments) {
                for s in segs {
                    g.push_batch(s, &mut sink).map_err(|e| e.to_string())?;
                }
            }
            Ok::<_, String>(())
        })?;
        let stats = log.scope("groupby.finish", |_| {
            groupers
                .iter_mut()
                .map(|g| g.finish(&mut sink).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
        })?;
        if sink.0 != self.reference.len() as u64 {
            return Err(format!(
                "{}: replay produced {} groups, reference has {}",
                self.name,
                sink.0,
                self.reference.len()
            ));
        }
        layers.insert(
            "groupby.groups",
            stats.iter().map(|s| s.groups_out as f64).sum(),
        );
        layers.insert(
            "groupby.spill_mb",
            stats.iter().map(|s| s.io.bytes_written as f64).sum::<f64>() / (1 << 20) as f64,
        );
        Ok((traced_wall, layers))
    }

    fn reported(&self) -> Layers {
        median_layers(&self.reported)
    }
}

/// Map emitter appending to a `KvBuf`, unrouted (partition 0), as the
/// engine's deferred map path buffers output for the in-node fold.
struct KvEmit<'a>(&'a mut KvBuf);

impl MapEmitter for KvEmit<'_> {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.0.push(0, key, value);
    }
}

/// Sink collecting final pairs into a segment.
struct BuildSink(SegmentBufBuilder);

impl Sink for BuildSink {
    fn emit(&mut self, key: &[u8], value: &[u8], kind: EmitKind) {
        if kind == EmitKind::Final {
            self.0.push(key, value);
        }
    }
}

/// Sink counting final emissions.
struct CountFinal(u64);

impl Sink for CountFinal {
    fn emit(&mut self, _key: &[u8], _value: &[u8], kind: EmitKind) {
        if kind == EmitKind::Final {
            self.0 += 1;
        }
    }
}
