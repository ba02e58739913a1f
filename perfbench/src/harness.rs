//! Repetition timing shared by every workload: CPU and peak-heap probes,
//! the timed loop, and the repeated set-up whose median is `setup_s`.

use std::time::Instant;

use crate::alloc::HEAP;
use crate::cpu::process_cpu_s;
use crate::stats::median;
use crate::Layers;

/// One timed repetition.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Input handed over → complete result, seconds.
    pub wall_s: f64,
    /// Time to first answer, seconds.
    pub ttfa_s: f64,
    /// Tail time to answer (p95 over answers or tenants), seconds.
    pub ttfa_p95_s: f64,
    /// Process CPU over the repetition, seconds.
    pub cpu_s: f64,
    /// Peak heap above the heap live at the start, MiB.
    pub peak_heap_mb: f64,
    /// Operations checked in this repetition.
    pub attempted: u64,
    /// Operations that errored or disagreed with the reference.
    pub failed: u64,
}

/// CPU and heap baselines taken at the start of a repetition.
pub struct Probe {
    cpu0: f64,
    heap0: usize,
}

impl Probe {
    /// Reset the heap high-water mark and read the baselines.
    pub fn start() -> Probe {
        HEAP.reset_peak();
        Probe {
            cpu0: process_cpu_s(),
            heap0: HEAP.live(),
        }
    }

    /// CPU seconds since [`Probe::start`].
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu0
    }

    /// Peak heap above the starting live heap, MiB.
    pub fn peak_heap_mb(&self) -> f64 {
        HEAP.peak().saturating_sub(self.heap0) as f64 / (1 << 20) as f64
    }
}

/// Fewest timed repetitions a run reports, however long they take.
pub const MIN_REPS: usize = 3;

/// Call `rep` until `seconds` have passed (and at least [`MIN_REPS`]
/// times). A repetition that returns `Err` counts as one failed
/// operation.
pub fn timed_loop(seconds: f64, mut rep: impl FnMut() -> Result<Sample, String>) -> Vec<Sample> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        out.push(rep().unwrap_or_else(|e| {
            eprintln!("repetition failed: {e}");
            Sample {
                attempted: 1,
                failed: 1,
                ..Sample::default()
            }
        }));
    }
    out
}

/// Times set-up runs of the workload; the median of their durations is
/// `setup_s`, so set-up work shows even though it is outside the timed
/// loop.
pub const SETUP_RUNS: usize = 3;

/// Run `setup` [`SETUP_RUNS`] times (each one generates the input,
/// computes the reference and warms the engine) and keep the last
/// result. Returns it with the median set-up seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_RUNS);
    let mut last = None;
    for _ in 0..SETUP_RUNS {
        drop(last.take()); // never hold two inputs at once
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("SETUP_RUNS > 0"),
        median(&times).expect("SETUP_RUNS > 0"),
    ))
}

/// Median of one field over the error-free samples.
pub fn median_of(samples: &[Sample], field: impl Fn(&Sample) -> f64) -> f64 {
    let ok: Vec<f64> = samples
        .iter()
        .filter(|s| s.failed == 0)
        .map(field)
        .collect();
    median(&ok).unwrap_or(f64::NAN)
}

/// Per-name medians over repetitions' per-layer values.
pub fn median_layers(reps: &[Layers]) -> Layers {
    let mut out = Layers::new();
    for name in reps.iter().flat_map(|l| l.keys().copied()) {
        if !out.contains_key(name) {
            let v: Vec<f64> = reps.iter().filter_map(|l| l.get(name).copied()).collect();
            out.insert(name, median(&v).unwrap_or(0.0));
        }
    }
    out
}
