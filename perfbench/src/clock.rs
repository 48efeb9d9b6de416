//! CPU time and the host-speed reference.
//!
//! The machines this benchmark runs on are shared, and other tenants slow
//! it down in two ways.  They take CPU away: a virtual CPU is descheduled
//! (steal) or a time slice goes to another process.  Wall time counts
//! those gaps and CPU time does not, so every measured duration is process
//! CPU time ([`process_cpu`]; with paravirtual steal accounting, as on
//! KVM guests, the kernel leaves steal out of it).  A disk wait (`fsync`)
//! is therefore not counted either; the system calls' own CPU time is.
//! They also slow the CPU that is given: over a few seconds the same
//! single-threaded loop runs 10–25% faster or slower, in CPU time too,
//! because caches and memory are shared.  Between measured operations the
//! benchmark therefore runs a short fixed probe (hashing into a 64 KiB
//! table, about 1 ms at the reference speed) every [`PROBE_EVERY`], and
//! divides every measured duration by the host's current slowdown factor:
//! probe time ÷ [`PROBE_REF_NS`].  Durations are thus reported at the
//! reference speed.  A change in the engine moves them fully; a change in
//! the host's speed mostly cancels.  The probe's own time is excluded from
//! every measurement, and the median factor is printed with each result.
//!
//! A workload that keeps several threads busy at once uses CPU time on
//! several virtual CPUs, each slowed on its own, so its probe runs on as
//! many threads at once (each timed in its own thread CPU time) and counts
//! their mean.
//!
//! Long operations (recoveries, batches of set-ups) are timed by
//! [`HostClock::time_long`] instead, which brackets each one with fresh
//! probes taken right before and right after it.  Those probes also
//! allocate and free many small blocks, as record decoding does: on this
//! kind of host the allocator and memory system slow down in spells of
//! several seconds that the hashing loop alone does not see.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout) and the clock ids are the kernel's CPU-time clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time used so far by every thread of the process.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time used so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Probe time at the reference speed, ns (about one millisecond).
pub const PROBE_REF_NS: f64 = 1.0e6;
/// Iterations of the probe loop.
const PROBE_ITERS: u64 = 145_000;
/// How often the probe runs while a workload runs.
pub const PROBE_EVERY: Duration = Duration::from_millis(50);
/// Probes the current factor is the median of.
const WINDOW: usize = 5;
/// Probe table entries (64 KiB of `u64`).
const TABLE: usize = 8 * 1024;
/// Blocks the long-operation probe allocates (sizes 8–207 bytes).
const ALLOCS: u64 = 10_000;
/// Long-operation probe time at the reference speed, ns (about 1.5 ms).
pub const LONG_PROBE_REF_NS: f64 = 1.5e6;
/// Long-operation probes taken on each side of a long operation.
const BRACKET: usize = 7;

/// Tracks the host's speed and the run's time at the reference speed.
pub struct HostClock {
    /// One probe table per thread the workload runs on at once.
    tables: Vec<Vec<u64>>,
    window: VecDeque<f64>,
    all: Vec<f64>,
    /// Every long-operation factor so far.
    long: Vec<f64>,
    last_probe: Instant,
    /// Process CPU time at the previous tick.
    last_tick: Duration,
    /// Seconds at the reference speed accumulated by [`HostClock::tick`].
    normalized_s: f64,
}

impl HostClock {
    /// A clock for a workload that keeps `threads` threads busy at once,
    /// primed with a few probes.
    pub fn new(threads: usize) -> HostClock {
        let mut clock = HostClock {
            tables: vec![vec![0; TABLE]; threads.max(1)],
            window: VecDeque::with_capacity(WINDOW),
            all: Vec::new(),
            long: Vec::new(),
            last_probe: Instant::now(),
            last_tick: process_cpu(),
            normalized_s: 0.0,
        };
        for _ in 0..WINDOW {
            clock.probe_now();
        }
        clock.last_tick = process_cpu();
        clock
    }

    /// Run the probe once on every table's thread at once; the mean of
    /// the threads' CPU times.
    fn probe(&mut self) -> Duration {
        let n = self.tables.len() as u32;
        let (first, rest) = self.tables.split_first_mut().expect("one table");
        let total: Duration = std::thread::scope(|s| {
            let others: Vec<_> = rest.iter_mut().map(|t| s.spawn(|| hash_probe(t))).collect();
            let d = hash_probe(first);
            others
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .fold(d, |a, b| a + b)
        });
        total / n
    }

    /// The host's current slowdown against the reference (median of the
    /// latest probes; above 1 means slower).
    pub fn factor(&self) -> f64 {
        let mut v: Vec<f64> = self.window.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    /// Median factor over every probe so far.
    pub fn median_factor(&self) -> f64 {
        crate::stats::median(&self.all).unwrap_or(1.0)
    }

    /// Run the probe now and fold it into the factor.
    pub fn probe_now(&mut self) {
        let f = self.probe().as_nanos() as f64 / PROBE_REF_NS;
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(f);
        self.all.push(f);
        self.last_probe = Instant::now();
    }

    /// Account the CPU time since the previous tick at the current
    /// factor, then probe if one is due.  Call it between measured
    /// operations.
    pub fn tick(&mut self) {
        self.normalized_s += (process_cpu() - self.last_tick).as_secs_f64() / self.factor();
        if self.last_probe.elapsed() >= PROBE_EVERY {
            self.probe_now();
        }
        self.last_tick = process_cpu();
    }

    /// Leave the time since the previous tick out of the run's time (the
    /// benchmark's own probes).
    pub fn skip(&mut self) {
        self.last_tick = process_cpu();
    }

    /// Seconds at the reference speed accumulated so far.
    pub fn normalized_s(&self) -> f64 {
        self.normalized_s
    }

    /// `d` at the reference speed, by the current factor.
    pub fn normalize(&self, d: Duration) -> f64 {
        d.as_secs_f64() / self.factor()
    }

    /// The allocator part of the long-operation probe: allocate, write
    /// and free [`ALLOCS`] small blocks; its thread CPU time.
    fn alloc_probe() -> Duration {
        let t0 = thread_cpu();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let blocks: Vec<Vec<u8>> = (0..ALLOCS)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                vec![i as u8; 8 + (state % 200) as usize]
            })
            .collect();
        let sum = blocks.iter().fold(0u64, |a, b| a + u64::from(b[0]));
        std::hint::black_box(sum);
        drop(blocks);
        thread_cpu() - t0
    }

    /// Slowdown factor from [`BRACKET`] fresh long-operation probes (the
    /// hashing probe plus [`Self::alloc_probe`]): their median time ÷
    /// [`LONG_PROBE_REF_NS`].
    fn long_factor(&mut self) -> f64 {
        let mut v: Vec<f64> = (0..BRACKET)
            .map(|_| {
                let hashed = self.probe();
                (hashed + Self::alloc_probe()).as_nanos() as f64 / LONG_PROBE_REF_NS
            })
            .collect();
        v.sort_by(f64::total_cmp);
        let f = v[v.len() / 2];
        self.long.push(f);
        f
    }

    /// Median long-operation factor so far.
    pub fn median_long_factor(&self) -> f64 {
        crate::stats::median(&self.long).unwrap_or(1.0)
    }

    /// Time a long operation (a recovery, a batch of set-ups): probe
    /// right before it, run `f`, probe right after it, and scale `f`'s
    /// duration (CPU time) by the mean of the two factors.  The probes'
    /// time is not counted in the run's time; the operation's span is.
    /// Returns `f`'s result and its duration at the reference speed, s.
    pub fn time_long<T>(&mut self, f: impl FnOnce() -> (T, Duration)) -> (T, f64) {
        self.tick();
        let before = self.long_factor();
        self.skip();
        let (out, d) = f();
        let span = process_cpu() - self.last_tick;
        let factor = (before + self.long_factor()) / 2.0;
        self.normalized_s += span.as_secs_f64() / factor;
        self.last_probe = Instant::now();
        self.last_tick = process_cpu();
        (out, d.as_secs_f64() / factor)
    }
}

/// The hashing probe over one table; its thread CPU time.  The table is read
/// once, untimed, first: the engine's memory traffic just before has
/// evicted it, and the factor must measure the host, not the engine's
/// cache footprint.
fn hash_probe(table: &mut [u64]) -> Duration {
    let table = std::hint::black_box(table);
    std::hint::black_box(table.iter().fold(0u64, |a, &v| a ^ v));
    let t0 = thread_cpu();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) % TABLE];
        *slot = slot.wrapping_add(i);
        x = x.wrapping_add(*slot);
    }
    std::hint::black_box(x);
    thread_cpu() - t0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keep the CPU busy for `ms` of thread CPU time; the process CPU
    /// time that took.
    fn spin(ms: u64) -> Duration {
        let (p0, t0) = (process_cpu(), thread_cpu());
        while thread_cpu() < t0 + Duration::from_millis(ms) {
            std::hint::black_box(0u64);
        }
        process_cpu() - p0
    }

    // One test, so that no other test of this module burns process CPU
    // time while it sleeps.
    #[test]
    fn only_unskipped_cpu_time_is_counted() {
        let mut c = HostClock::new(2);
        c.tick();
        let start = c.normalized_s();
        spin(30);
        c.skip();
        c.tick();
        let counted = c.normalized_s() - start;
        assert!(counted * c.factor() < 0.02, "counted {counted} s");

        std::thread::sleep(Duration::from_millis(50));
        c.tick();
        let counted = c.normalized_s() - start;
        assert!(counted * c.factor() < 0.02, "counted {counted} s");

        let ((), secs) = c.time_long(|| ((), spin(30)));
        assert!(secs > 0.0);
        assert!(c.normalized_s() - start >= secs * 0.9);
    }
}
