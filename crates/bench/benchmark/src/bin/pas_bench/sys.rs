//! Process-level helpers: CPU affinity, peak memory, machine facts.
//!
//! Affinity goes through `sched_{get,set}affinity(2)` declared with
//! `extern "C"` (std already links libc on Linux), the same way
//! `pas_serve::net` declares `signal(2)`, so no crate is added.

use std::cell::Cell;

/// `cpu_set_t` is 1024 bits on Linux.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask, or `None` where affinity is unsupported.
fn get_mask() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

fn set_mask(set: &CpuSet) -> Result<(), String> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `set` is a readable buffer of exactly the size passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "sched_setaffinity failed: {}",
                std::io::Error::last_os_error()
            ))
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = set;
        Err("CPU affinity is only supported on Linux".to_string())
    }
}

fn single(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// A worker pinned to one CPU of the process's start-up mask. The start-up
/// mask is kept so the worker can move to another of its CPUs, or widen
/// back to all of them (the `sim.parallel_scaling` measurement).
pub struct Affinity {
    original: CpuSet,
    cpus: Vec<usize>,
    current: Cell<usize>,
}

impl Affinity {
    /// Pins the calling thread (and so every thread it spawns later, and
    /// `available_parallelism`, which the vendored rayon reads) to the
    /// first CPU of its current mask.
    pub fn pin_to_one_cpu() -> Result<Self, String> {
        let original = get_mask().ok_or("sched_getaffinity failed")?;
        let cpus: Vec<usize> = (0..original.len() * 64)
            .filter(|&c| original[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        let first = *cpus.first().ok_or("empty CPU mask")?;
        set_mask(&single(first))?;
        Ok(Self {
            original,
            cpus,
            current: Cell::new(0),
        })
    }

    /// CPUs in the start-up mask.
    pub fn count(&self) -> usize {
        self.cpus.len()
    }

    /// Moves the pinned thread to CPU `k` (modulo the count) of the
    /// start-up mask, and returns that index.
    pub fn use_cpu(&self, k: usize) -> Result<usize, String> {
        let k = k % self.cpus.len();
        if k != self.current.get() {
            set_mask(&single(self.cpus[k]))?;
            self.current.set(k);
        }
        Ok(k)
    }

    /// Runs `f` with the start-up CPU mask restored, then pins again.
    pub fn widened<T>(&self, f: impl FnOnce() -> T) -> Result<T, String> {
        set_mask(&self.original)?;
        let out = f();
        set_mask(&single(self.cpus[self.current.get()]))?;
        Ok(out)
    }
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Allocates and frees one 16 MiB block, untouched, so it never becomes
/// resident. glibc serves large allocations with `mmap` until the first
/// such block is freed, then raises its mmap threshold to that block's
/// size, and a long-running process stays in that state. Which input
/// first triggers it depends on the seed: over ten seeds it put
/// `offline-large`'s peak memory at 62–65 or 72–75 MB. Every benchmark
/// process, the workers and the `pas serve` daemon alike, calls this
/// first, so each is measured in the state a long-running process
/// settles in, whatever the seed.
pub fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(16 << 20)));
}

/// A TCP port on 127.0.0.1 that was free a moment ago.
pub fn free_port() -> Result<u16, String> {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding a port: {e}"))?;
    listener
        .local_addr()
        .map(|a| a.port())
        .map_err(|e| format!("reading the bound port: {e}"))
}
