//! Length-prefixed frame protocol for the TCP transport.
//!
//! Every frame on the wire is `[u32 LE body length][u8 tag][fields]`.
//! Integers are little-endian `u64`s, strings and byte blobs carry a
//! `u32` length prefix. Segment and final-output payloads reuse the
//! engine's framed key/value encoding (`[u32 klen][u32 vlen][key][value]`
//! per record — the same bytes spill files hold), so a received payload
//! decodes zero-copy via [`SegmentBuf::from_framed`].
//!
//! A [`JobSpec`] carries closures and cannot travel whole; [`WireJob`]
//! ships the job *name* plus every scalar knob, and the worker overlays
//! those knobs on the spec its [`JobRegistry`](super::JobRegistry)
//! rebuilt from the name.

use std::sync::Arc;

use onepass_core::error::{Error, Result};
use onepass_core::SegmentBuf;

use crate::driver::SpillBackend;
use crate::job::{Combine, JobSpec, MapSideMode, ReduceBackend, ShuffleMode};

/// Upper bound on a single frame body; a larger length prefix means the
/// stream is corrupt (or not speaking this protocol).
pub(crate) const MAX_FRAME: usize = 1 << 30;

/// Map-task stats that travel in a [`Frame::MapOk`]. CPU profiles stay
/// worker-local; only the counters the report aggregates are shipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WireMapStats {
    pub input_records: u64,
    pub input_bytes: u64,
    pub output_records: u64,
    pub shuffled_records: u64,
    pub shuffled_bytes: u64,
    pub flushes: u64,
}

/// Reduce-task stats that travel in a [`Frame::ReduceDone`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WireReduceStats {
    pub records_in: u64,
    pub groups_out: u64,
    pub early_emits: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub runs_created: u64,
    pub runs_deleted: u64,
    pub peak_mem: u64,
    pub spills: u64,
    pub passes: u64,
    pub snapshots_taken: u64,
    pub attempts: u64,
}

/// Everything the coordinator ships to instantiate a job on a worker.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WireJob {
    pub name: String,
    pub reducers: u64,
    /// 0 = SortSpill, 1 = HashPartitionOnly, 2 = HashCombine.
    pub map_side: u8,
    /// 0 = Pull, 1 = Push.
    pub shuffle: u8,
    pub granularity: u64,
    /// 0 = Off, 1 = On.
    pub combine: u8,
    /// 0 = SortMerge, 1 = HybridHash, 2 = IncHash, 3 = FreqHash.
    pub backend: u8,
    /// merge_factor / fanout, depending on `backend` (0 when unused).
    pub backend_arg: u64,
    pub snapshots: Vec<f64>,
    pub map_buffer_bytes: u64,
    pub reduce_budget_bytes: u64,
    pub inmem_merge_threshold: u64,
    /// Worker-internal reduce retry budget.
    pub max_attempts: u64,
    /// 0 = Memory, 1 = TempFiles.
    pub spill: u8,
}

impl WireJob {
    /// Capture `job`'s scalar knobs plus the engine knobs a worker needs.
    pub(crate) fn from_job(job: &JobSpec, max_attempts: usize, spill: SpillBackend) -> Self {
        let (backend, backend_arg, snapshots) = match &job.backend {
            ReduceBackend::SortMerge {
                merge_factor,
                snapshots,
            } => (0, *merge_factor as u64, snapshots.clone()),
            ReduceBackend::HybridHash { fanout } => (1, *fanout as u64, Vec::new()),
            ReduceBackend::IncHash { .. } => (2, 0, Vec::new()),
            ReduceBackend::FreqHash => (3, 0, Vec::new()),
        };
        let (shuffle, granularity) = match job.shuffle {
            ShuffleMode::Pull => (0, 0),
            ShuffleMode::Push { granularity } => (1, granularity as u64),
        };
        WireJob {
            name: job.name.clone(),
            reducers: job.reducers as u64,
            map_side: match job.map_side {
                MapSideMode::SortSpill => 0,
                MapSideMode::HashPartitionOnly => 1,
                MapSideMode::HashCombine => 2,
            },
            shuffle,
            granularity,
            combine: job.combine.is_on() as u8,
            backend,
            backend_arg,
            snapshots,
            map_buffer_bytes: job.map_buffer_bytes as u64,
            reduce_budget_bytes: job.reduce_budget_bytes as u64,
            inmem_merge_threshold: job.inmem_merge_threshold as u64,
            max_attempts: max_attempts as u64,
            spill: match spill {
                SpillBackend::Memory => 0,
                SpillBackend::TempFiles => 1,
            },
        }
    }

    /// Overlay these knobs on `base` (the registry-built spec). Closures
    /// (map fn, aggregate, partitioner, early-emit policies) always come
    /// from `base`; when the wire backend kind matches `base`'s, the
    /// early-emit policy the wire can't carry is preserved too.
    pub(crate) fn apply(&self, base: JobSpec) -> Result<JobSpec> {
        let mut job = base;
        job.reducers = self.reducers as usize;
        job.map_side = match self.map_side {
            0 => MapSideMode::SortSpill,
            1 => MapSideMode::HashPartitionOnly,
            2 => MapSideMode::HashCombine,
            n => return Err(Error::Corrupt(format!("bad map_side tag {n}"))),
        };
        job.shuffle = match self.shuffle {
            0 => ShuffleMode::Pull,
            1 => ShuffleMode::Push {
                granularity: self.granularity as usize,
            },
            n => return Err(Error::Corrupt(format!("bad shuffle tag {n}"))),
        };
        job.combine = if self.combine == 1 {
            Combine::On
        } else {
            Combine::Off
        };
        job.backend = match (self.backend, &job.backend) {
            (0, _) => ReduceBackend::SortMerge {
                merge_factor: self.backend_arg as usize,
                snapshots: self.snapshots.clone(),
            },
            (1, _) => ReduceBackend::HybridHash {
                fanout: self.backend_arg as usize,
            },
            // Keep the registry's early-emit policy when the kinds line
            // up; otherwise fall back to none.
            (2, ReduceBackend::IncHash { early }) => ReduceBackend::IncHash {
                early: early.clone(),
            },
            (2, _) => ReduceBackend::IncHash { early: None },
            (3, _) => ReduceBackend::FreqHash,
            (n, _) => return Err(Error::Corrupt(format!("bad backend tag {n}"))),
        };
        job.map_buffer_bytes = self.map_buffer_bytes as usize;
        job.reduce_budget_bytes = self.reduce_budget_bytes as usize;
        job.inmem_merge_threshold = self.inmem_merge_threshold as usize;
        job.validate()?;
        Ok(job)
    }

    /// The engine spill backend this job's reduces should use.
    pub(crate) fn spill_backend(&self) -> SpillBackend {
        if self.spill == 1 {
            SpillBackend::TempFiles
        } else {
            SpillBackend::Memory
        }
    }
}

/// One protocol message. Direction is implied by the variant: the
/// coordinator sends `JobInit`/`NewSplit`/`FeedClosed`/`ReduceTask`/
/// `Red*`/`Ping`; workers send `Segment`/`MapDone`/`MapOk`/`MapFailed`/
/// `FinalBatch`/`ReduceDone`/`Pong`/`JobRejected`/`Abort`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame {
    /// Instantiate the named job on the worker connection.
    JobInit(WireJob),
    /// Dispatch one map task attempt with its input records.
    NewSplit {
        task: u64,
        attempt: u64,
        records: Vec<Vec<u8>>,
    },
    /// No further map tasks will arrive on this connection.
    FeedClosed,
    /// Host reduce partition `partition` on the worker connection.
    ReduceTask { partition: u64 },
    /// A shuffle segment (worker → coordinator from map tasks, and
    /// coordinator → worker into hosted reduce partitions).
    Segment {
        map_task: u64,
        attempt: u64,
        partition: u64,
        sorted: bool,
        combined: bool,
        /// Framed key/value records.
        payload: Vec<u8>,
    },
    /// Map attempt completed (worker → coordinator; fans out to every
    /// partition through the coordinator's fabric).
    MapDone { map_task: u64, attempt: u64 },
    /// Map attempt succeeded; its stats follow.
    MapOk {
        task: u64,
        attempt: u64,
        stats: WireMapStats,
    },
    /// Map attempt failed (error or panic) on the worker.
    MapFailed {
        task: u64,
        attempt: u64,
        error: String,
    },
    /// A batch of reduce output records (worker → coordinator).
    /// `kind` 0 = early, 1 = final; `payload` is framed key/value records.
    FinalBatch {
        partition: u64,
        kind: u8,
        payload: Vec<u8>,
    },
    /// Hosted reduce partition finished; its stats follow.
    ReduceDone {
        partition: u64,
        stats: WireReduceStats,
    },
    /// Heartbeat probe (coordinator → worker).
    Ping { nonce: u64 },
    /// Heartbeat reply.
    Pong { nonce: u64 },
    /// The worker does not know the submitted job name.
    JobRejected { reason: String },
    /// Worker-side map tasks aborting (mirrors `ShuffleMsg::Abort`).
    Abort,
    /// Per-partition control fan-in (coordinator → the worker hosting
    /// `partition`): a map task attempt committed.
    RedMapDone {
        partition: u64,
        map_task: u64,
        attempt: u64,
    },
    /// Per-partition: final map task count is now known.
    RedInputExhausted { partition: u64, total: u64 },
    /// Per-partition: the job is aborting.
    RedAbort { partition: u64 },
}

// Body tags. Tag 0 is deliberately unused so an all-zero read is corrupt.
const T_JOB_INIT: u8 = 1;
const T_NEW_SPLIT: u8 = 2;
const T_FEED_CLOSED: u8 = 3;
const T_REDUCE_TASK: u8 = 4;
const T_SEGMENT: u8 = 5;
const T_MAP_DONE: u8 = 6;
const T_MAP_OK: u8 = 7;
const T_MAP_FAILED: u8 = 8;
const T_FINAL_BATCH: u8 = 9;
const T_REDUCE_DONE: u8 = 10;
const T_PING: u8 = 11;
const T_PONG: u8 = 12;
const T_JOB_REJECTED: u8 = 13;
const T_ABORT: u8 = 14;
const T_RED_MAP_DONE: u8 = 15;
const T_RED_INPUT_EXHAUSTED: u8 = 16;
const T_RED_ABORT: u8 = 17;

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Self {
        Enc { buf: vec![tag] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.b.len() {
            return Err(Error::Corrupt("truncated frame".into()));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn str(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| Error::Corrupt("non-utf8 string".into()))
    }
}

impl Frame {
    /// Serialize the frame body (everything after the length prefix).
    pub(crate) fn encode(&self) -> Vec<u8> {
        match self {
            Frame::JobInit(j) => {
                let mut e = Enc::new(T_JOB_INIT);
                e.str(&j.name);
                e.u64(j.reducers);
                e.u8(j.map_side);
                e.u8(j.shuffle);
                e.u64(j.granularity);
                e.u8(j.combine);
                e.u8(j.backend);
                e.u64(j.backend_arg);
                e.u64(j.snapshots.len() as u64);
                for s in &j.snapshots {
                    e.f64(*s);
                }
                e.u64(j.map_buffer_bytes);
                e.u64(j.reduce_budget_bytes);
                e.u64(j.inmem_merge_threshold);
                e.u64(j.max_attempts);
                e.u8(j.spill);
                e.buf
            }
            Frame::NewSplit {
                task,
                attempt,
                records,
            } => {
                let mut e = Enc::new(T_NEW_SPLIT);
                e.u64(*task);
                e.u64(*attempt);
                e.u64(records.len() as u64);
                for r in records {
                    e.bytes(r);
                }
                e.buf
            }
            Frame::FeedClosed => Enc::new(T_FEED_CLOSED).buf,
            Frame::ReduceTask { partition } => {
                let mut e = Enc::new(T_REDUCE_TASK);
                e.u64(*partition);
                e.buf
            }
            Frame::Segment {
                map_task,
                attempt,
                partition,
                sorted,
                combined,
                payload,
            } => {
                let mut e = Enc::new(T_SEGMENT);
                e.u64(*map_task);
                e.u64(*attempt);
                e.u64(*partition);
                e.u8(*sorted as u8);
                e.u8(*combined as u8);
                e.bytes(payload);
                e.buf
            }
            Frame::MapDone { map_task, attempt } => {
                let mut e = Enc::new(T_MAP_DONE);
                e.u64(*map_task);
                e.u64(*attempt);
                e.buf
            }
            Frame::MapOk {
                task,
                attempt,
                stats,
            } => {
                let mut e = Enc::new(T_MAP_OK);
                e.u64(*task);
                e.u64(*attempt);
                for v in [
                    stats.input_records,
                    stats.input_bytes,
                    stats.output_records,
                    stats.shuffled_records,
                    stats.shuffled_bytes,
                    stats.flushes,
                ] {
                    e.u64(v);
                }
                e.buf
            }
            Frame::MapFailed {
                task,
                attempt,
                error,
            } => {
                let mut e = Enc::new(T_MAP_FAILED);
                e.u64(*task);
                e.u64(*attempt);
                e.str(error);
                e.buf
            }
            Frame::FinalBatch {
                partition,
                kind,
                payload,
            } => {
                let mut e = Enc::new(T_FINAL_BATCH);
                e.u64(*partition);
                e.u8(*kind);
                e.bytes(payload);
                e.buf
            }
            Frame::ReduceDone { partition, stats } => {
                let mut e = Enc::new(T_REDUCE_DONE);
                e.u64(*partition);
                for v in [
                    stats.records_in,
                    stats.groups_out,
                    stats.early_emits,
                    stats.bytes_written,
                    stats.bytes_read,
                    stats.runs_created,
                    stats.runs_deleted,
                    stats.peak_mem,
                    stats.spills,
                    stats.passes,
                    stats.snapshots_taken,
                    stats.attempts,
                ] {
                    e.u64(v);
                }
                e.buf
            }
            Frame::Ping { nonce } => {
                let mut e = Enc::new(T_PING);
                e.u64(*nonce);
                e.buf
            }
            Frame::Pong { nonce } => {
                let mut e = Enc::new(T_PONG);
                e.u64(*nonce);
                e.buf
            }
            Frame::JobRejected { reason } => {
                let mut e = Enc::new(T_JOB_REJECTED);
                e.str(reason);
                e.buf
            }
            Frame::Abort => Enc::new(T_ABORT).buf,
            Frame::RedMapDone {
                partition,
                map_task,
                attempt,
            } => {
                let mut e = Enc::new(T_RED_MAP_DONE);
                e.u64(*partition);
                e.u64(*map_task);
                e.u64(*attempt);
                e.buf
            }
            Frame::RedInputExhausted { partition, total } => {
                let mut e = Enc::new(T_RED_INPUT_EXHAUSTED);
                e.u64(*partition);
                e.u64(*total);
                e.buf
            }
            Frame::RedAbort { partition } => {
                let mut e = Enc::new(T_RED_ABORT);
                e.u64(*partition);
                e.buf
            }
        }
    }

    /// Parse a frame body produced by [`encode`](Self::encode).
    pub(crate) fn decode(body: &[u8]) -> Result<Frame> {
        let mut d = Dec::new(body);
        let frame = match d.u8()? {
            T_JOB_INIT => {
                let name = d.str()?;
                let reducers = d.u64()?;
                let map_side = d.u8()?;
                let shuffle = d.u8()?;
                let granularity = d.u64()?;
                let combine = d.u8()?;
                let backend = d.u8()?;
                let backend_arg = d.u64()?;
                let n = d.u64()? as usize;
                if n > body.len() {
                    return Err(Error::Corrupt("snapshot count exceeds frame".into()));
                }
                let mut snapshots = Vec::with_capacity(n);
                for _ in 0..n {
                    snapshots.push(d.f64()?);
                }
                Frame::JobInit(WireJob {
                    name,
                    reducers,
                    map_side,
                    shuffle,
                    granularity,
                    combine,
                    backend,
                    backend_arg,
                    snapshots,
                    map_buffer_bytes: d.u64()?,
                    reduce_budget_bytes: d.u64()?,
                    inmem_merge_threshold: d.u64()?,
                    max_attempts: d.u64()?,
                    spill: d.u8()?,
                })
            }
            T_NEW_SPLIT => {
                let task = d.u64()?;
                let attempt = d.u64()?;
                let n = d.u64()? as usize;
                if n > body.len() {
                    return Err(Error::Corrupt("record count exceeds frame".into()));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(d.bytes()?);
                }
                Frame::NewSplit {
                    task,
                    attempt,
                    records,
                }
            }
            T_FEED_CLOSED => Frame::FeedClosed,
            T_REDUCE_TASK => Frame::ReduceTask {
                partition: d.u64()?,
            },
            T_SEGMENT => Frame::Segment {
                map_task: d.u64()?,
                attempt: d.u64()?,
                partition: d.u64()?,
                sorted: d.u8()? != 0,
                combined: d.u8()? != 0,
                payload: d.bytes()?,
            },
            T_MAP_DONE => Frame::MapDone {
                map_task: d.u64()?,
                attempt: d.u64()?,
            },
            T_MAP_OK => Frame::MapOk {
                task: d.u64()?,
                attempt: d.u64()?,
                stats: WireMapStats {
                    input_records: d.u64()?,
                    input_bytes: d.u64()?,
                    output_records: d.u64()?,
                    shuffled_records: d.u64()?,
                    shuffled_bytes: d.u64()?,
                    flushes: d.u64()?,
                },
            },
            T_MAP_FAILED => Frame::MapFailed {
                task: d.u64()?,
                attempt: d.u64()?,
                error: d.str()?,
            },
            T_FINAL_BATCH => Frame::FinalBatch {
                partition: d.u64()?,
                kind: d.u8()?,
                payload: d.bytes()?,
            },
            T_REDUCE_DONE => Frame::ReduceDone {
                partition: d.u64()?,
                stats: WireReduceStats {
                    records_in: d.u64()?,
                    groups_out: d.u64()?,
                    early_emits: d.u64()?,
                    bytes_written: d.u64()?,
                    bytes_read: d.u64()?,
                    runs_created: d.u64()?,
                    runs_deleted: d.u64()?,
                    peak_mem: d.u64()?,
                    spills: d.u64()?,
                    passes: d.u64()?,
                    snapshots_taken: d.u64()?,
                    attempts: d.u64()?,
                },
            },
            T_PING => Frame::Ping { nonce: d.u64()? },
            T_PONG => Frame::Pong { nonce: d.u64()? },
            T_JOB_REJECTED => Frame::JobRejected { reason: d.str()? },
            T_ABORT => Frame::Abort,
            T_RED_MAP_DONE => Frame::RedMapDone {
                partition: d.u64()?,
                map_task: d.u64()?,
                attempt: d.u64()?,
            },
            T_RED_INPUT_EXHAUSTED => Frame::RedInputExhausted {
                partition: d.u64()?,
                total: d.u64()?,
            },
            T_RED_ABORT => Frame::RedAbort {
                partition: d.u64()?,
            },
            t => return Err(Error::Corrupt(format!("unknown frame tag {t}"))),
        };
        if d.pos != body.len() {
            return Err(Error::Corrupt("trailing bytes in frame".into()));
        }
        Ok(frame)
    }
}

/// Encode a [`SegmentBuf`] as framed key/value records — byte-compatible
/// with spill files and with [`SegmentBuf::from_framed`].
pub(crate) fn encode_kv(records: &SegmentBuf) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.payload_bytes() + records.len() * 8);
    for (k, v) in records.iter() {
        append_kv(&mut out, k, v);
    }
    out
}

/// Append one framed key/value record to `out`.
pub(crate) fn append_kv(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

/// Decode framed key/value records into a zero-copy [`SegmentBuf`].
pub(crate) fn decode_kv(payload: Vec<u8>) -> Result<SegmentBuf> {
    SegmentBuf::from_framed(Arc::new(payload), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_core::SegmentBufBuilder;

    fn roundtrip(f: Frame) {
        let body = f.encode();
        assert_eq!(Frame::decode(&body).unwrap(), f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::NewSplit {
            task: 3,
            attempt: 1,
            records: vec![b"a b".to_vec(), vec![], b"c".to_vec()],
        });
        roundtrip(Frame::FeedClosed);
        roundtrip(Frame::ReduceTask { partition: 2 });
        roundtrip(Frame::Segment {
            map_task: 1,
            attempt: 0,
            partition: 3,
            sorted: true,
            combined: false,
            payload: b"xyz".to_vec(),
        });
        roundtrip(Frame::MapDone {
            map_task: 9,
            attempt: 2,
        });
        roundtrip(Frame::MapOk {
            task: 1,
            attempt: 0,
            stats: WireMapStats {
                input_records: 10,
                input_bytes: 100,
                output_records: 20,
                shuffled_records: 20,
                shuffled_bytes: 200,
                flushes: 1,
            },
        });
        roundtrip(Frame::MapFailed {
            task: 1,
            attempt: 1,
            error: "boom".into(),
        });
        roundtrip(Frame::FinalBatch {
            partition: 0,
            kind: 1,
            payload: vec![1, 2, 3],
        });
        roundtrip(Frame::ReduceDone {
            partition: 1,
            stats: WireReduceStats {
                records_in: 5,
                groups_out: 3,
                attempts: 1,
                ..Default::default()
            },
        });
        roundtrip(Frame::Ping { nonce: 42 });
        roundtrip(Frame::Pong { nonce: 42 });
        roundtrip(Frame::JobRejected {
            reason: "unknown job".into(),
        });
        roundtrip(Frame::Abort);
        roundtrip(Frame::RedMapDone {
            partition: 1,
            map_task: 2,
            attempt: 0,
        });
        roundtrip(Frame::RedInputExhausted {
            partition: 1,
            total: 8,
        });
        roundtrip(Frame::RedAbort { partition: 0 });
    }

    #[test]
    fn wire_job_roundtrips_and_applies() {
        let base = JobSpec::builder("wc")
            .reducers(3)
            .preset_onepass()
            .build()
            .unwrap();
        let wire = WireJob::from_job(&base, 4, SpillBackend::TempFiles);
        roundtrip(Frame::JobInit(wire.clone()));

        // Apply onto a default-shaped registry spec: scalars come from the
        // wire, closures from the base.
        let registry_spec = JobSpec::builder("wc").build().unwrap();
        let applied = wire.apply(registry_spec).unwrap();
        assert_eq!(applied.reducers, 3);
        assert_eq!(applied.map_side, base.map_side);
        assert_eq!(applied.shuffle, base.shuffle);
        assert!(matches!(applied.backend, ReduceBackend::FreqHash));
        assert_eq!(wire.spill_backend(), SpillBackend::TempFiles);
    }

    #[test]
    fn kv_payload_decodes_zero_copy() {
        let mut b = SegmentBufBuilder::new();
        b.push(b"key", b"value");
        b.push(b"", b"v2");
        let seg = b.finish();
        let payload = encode_kv(&seg);
        let back = decode_kv(payload).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(0), (&b"key"[..], &b"value"[..]));
        assert_eq!(back.get(1), (&b""[..], &b"v2"[..]));
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        assert!(Frame::decode(&[]).is_err());
        assert!(Frame::decode(&[0]).is_err());
        assert!(Frame::decode(&[99]).is_err());
        // Truncated NewSplit.
        let mut body = Frame::NewSplit {
            task: 1,
            attempt: 0,
            records: vec![b"abc".to_vec()],
        }
        .encode();
        body.truncate(body.len() - 1);
        assert!(Frame::decode(&body).is_err());
        // Trailing garbage.
        let mut body = Frame::Abort.encode();
        body.push(0);
        assert!(Frame::decode(&body).is_err());
    }
}
