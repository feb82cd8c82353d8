//! The timing loop every in-process workload shares: one warm-up sample,
//! then one timed sample per second of `--seconds`.
//!
//! The machine's CPUs may be shared with load from outside the benchmark.
//! That load only ever slows an op down, comes and goes over seconds, and
//! tends to hit one CPU at a time; a disturbed op takes about half as long
//! again. So a pinned worker takes its samples on the CPUs it may use in
//! turn, ops cycle through a fixed set of inputs, and a run reports each
//! input at its fastest: the minimum over repeats of the same work is the
//! estimate that outside load disturbs least. Set-up time is taken in
//! slots between the samples, and the run reports the fastest slot.

use crate::record::Metric;
use crate::spans::Spans;
use crate::stats;
use crate::sys::Affinity;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Least timed work in one sample.
const SAMPLE: Duration = Duration::from_secs(1);

/// Op latencies of a measured window.
pub struct Measured {
    /// Ops per cycle: op `k` runs input `k % cycle`.
    cycle: usize,
    /// Op latencies of each timed sample, in ms, in op order. Every
    /// sample is a whole number of cycles.
    samples: Vec<Vec<f64>>,
}

impl Measured {
    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }

    /// Each input's fastest op over the timed samples, in ms.
    fn fastest(&self) -> Vec<f64> {
        let mut best = vec![f64::INFINITY; self.cycle];
        for sample in &self.samples {
            for (j, &t) in sample.iter().enumerate() {
                best[j % self.cycle] = best[j % self.cycle].min(t);
            }
        }
        best
    }

    /// Ops per second over one cycle with every input at its fastest.
    pub fn ops_per_s(&self) -> f64 {
        self.cycle as f64 * 1e3 / self.fastest().iter().sum::<f64>()
    }

    /// `ops_per_s`, with the quartiles of the samples' own throughput;
    /// `op_p50_ms`, the median input at its fastest; and `op_p90_ms` over
    /// every op, which is reported but carries no bound.
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        let rates: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.len() as f64 * 1e3 / s.iter().sum::<f64>())
            .collect();
        let mut out = vec![
            Metric::value("ops_per_s", self.ops_per_s()).spread(&rates),
            Metric::percentile("op_p50_ms", &self.fastest(), 0.5)?,
        ];
        out.extend(Metric::percentile("op_p90_ms", &self.samples.concat(), 0.9).ok());
        Ok(out)
    }
}

/// Calls `op(0)`, `op(1)`, ... through one warm-up sample and then
/// `seconds` timed samples, each at least one second of timed work, the
/// samples taking turns on the CPUs of `pin`. Op `k` runs input
/// `k % cycle`, and a sample ends only with a whole cycle, so every
/// sample runs the same mix. `op` returns the duration of its timed part
/// (checks run outside it). `between` runs before every sample, on that
/// sample's CPU (the set-up slots). With `spans`, every sample and op is
/// recorded as a span.
pub fn sample(
    seconds: u64,
    cycle: u64,
    pin: &Affinity,
    mut spans: Option<&mut Spans>,
    mut between: Option<&mut dyn FnMut() -> Result<(), String>>,
    mut op: impl FnMut(u64) -> Result<Duration, String>,
) -> Result<Measured, String> {
    let mut out = Measured {
        cycle: cycle as usize,
        samples: Vec::with_capacity(seconds as usize),
    };
    let mut next = 0u64;
    for s in 0..=seconds as usize {
        pin.use_cpu(s)?;
        if let Some(between) = between.as_deref_mut() {
            between()?;
        }
        if let Some(sp) = spans.as_deref_mut() {
            sp.begin(if s == 0 {
                "warm-up".to_string()
            } else {
                format!("sample {s}")
            });
        }
        let mut busy = Duration::ZERO;
        let mut latency = Vec::new();
        let started = Instant::now();
        while busy < SAMPLE || !next.is_multiple_of(cycle) {
            if let Some(sp) = spans.as_deref_mut() {
                sp.begin("op");
            }
            let t = op(next);
            if let Some(sp) = spans.as_deref_mut() {
                sp.end();
            }
            let t = t?;
            next += 1;
            busy += t;
            latency.push(t.as_secs_f64() * 1e3);
            if started.elapsed() > 60 * SAMPLE {
                return Err("a sample took over 60 s of wall time".to_string());
            }
        }
        if let Some(sp) = spans.as_deref_mut() {
            sp.end();
        }
        if s > 0 {
            out.samples.push(latency);
        }
    }
    Ok(out)
}

/// Least time one set-up slot spends repeating the set-up.
const SETUP_SLOT: Duration = Duration::from_millis(50);

/// The benchmark's set-up time, taken in slots spread over the run: each
/// slot repeats the set-up on the current CPU and keeps the median; the
/// metric is the lowest slot median, in seconds.
#[derive(Default)]
pub struct SetupTimer {
    slots: Vec<f64>,
}

impl SetupTimer {
    /// One slot: `f` runs until [`SETUP_SLOT`] has passed, at least once.
    /// Returns the last set-up built; each earlier one is dropped before
    /// the next is built.
    pub fn slot<T>(&mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let mut last = None;
        let mut times = Vec::new();
        let started = Instant::now();
        while times.is_empty() || started.elapsed() < SETUP_SLOT {
            drop(last.take());
            let t0 = Instant::now();
            let v = f()?;
            times.push(t0.elapsed().as_secs_f64());
            last = Some(v);
        }
        self.slots.extend(stats::median(&times));
        last.ok_or_else(|| "set-up ran zero times".to_string())
    }

    pub fn metric(&self) -> Result<Metric, String> {
        Metric::lowest("setup_s", &self.slots)
    }
}

/// Rounds the traced run makes over a table of layer probes.
const ROUNDS: usize = 7;

/// One row of a layer table: a pass over `items` items that returns the
/// duration of its timed part (input built before the clock starts is not
/// counted).
struct Probe<'a> {
    name: String,
    items: usize,
    pass: Box<dyn FnMut() -> Result<Duration, String> + 'a>,
}

/// The traced run's layer table, each layer timed on its own from outside.
/// Every round times every row once, so the rows of one table see the
/// same outside load; each row keeps its fastest round, for the reason a
/// run keeps each input at its fastest.
#[derive(Default)]
pub struct Probes<'a> {
    rows: Vec<Probe<'a>>,
}

impl<'a> Probes<'a> {
    pub fn add(
        &mut self,
        name: impl Into<String>,
        items: usize,
        pass: impl FnMut() -> Result<Duration, String> + 'a,
    ) {
        self.rows.push(Probe {
            name: name.into(),
            items,
            pass: Box::new(pass),
        });
    }

    /// Times every row [`ROUNDS`] times, each pass in a span named after
    /// its row.
    pub fn run(mut self, spans: &mut Spans) -> Result<Timings, String> {
        let mut best = vec![f64::INFINITY; self.rows.len()];
        for _ in 0..ROUNDS {
            for (row, best) in self.rows.iter_mut().zip(&mut best) {
                let t = spans.scope(row.name.clone(), |_| (row.pass)())?;
                *best = best.min(t.as_secs_f64() * 1e9 / row.items.max(1) as f64);
            }
        }
        Ok(Timings(
            self.rows.into_iter().map(|r| r.name).zip(best).collect(),
        ))
    }
}

/// Each row's fastest pass, in ns per item.
pub struct Timings(Vec<(String, f64)>);

impl Timings {
    pub fn ns(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no probe named {name}"))
            .1
    }
}

/// How long `f` takes; its result goes through `black_box`.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<Duration, String> {
    let t0 = Instant::now();
    black_box(f()?);
    Ok(t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_input_counts_at_its_fastest() {
        // Two inputs that take 1 ms and 3 ms undisturbed; outside load
        // slowed input 1 in the first sample and input 0 in the second.
        let m = Measured {
            cycle: 2,
            samples: vec![vec![1.0, 4.5, 1.0, 3.0], vec![1.5, 3.0]],
        };
        assert_eq!(m.fastest(), vec![1.0, 3.0]);
        assert_eq!(m.ops_per_s(), 500.0);
        assert_eq!(m.ops(), 6);
    }
}
