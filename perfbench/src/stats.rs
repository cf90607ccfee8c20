//! Order statistics over timing samples, and the loop that collects them.

use std::time::Instant;

/// CPU seconds this process has used, over all its threads.
///
/// On a shared virtual machine the host hands the CPU to other tenants for
/// stretches of a run (steal time); wall-clock times then measure the
/// neighbours. The kernel leaves steal time out of a process's CPU time.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` matches the 64-bit Linux `struct timespec` and is valid
    // for writes for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the finite values of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    let v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// `scale_exp`: log₄ of the mean over ops of the per-op median time at full
/// size over the same mean at a quarter of the size. Means let the heavy
/// ops, whose times are the program's work and not fixed overhead, set it;
/// a median of per-op ratios swung with the small ops.
pub fn scale_exp(full: &[f64], quarter: &[f64]) -> f64 {
    (mean(full) / mean(quarter)).ln() / 4f64.ln()
}

/// Nearest-rank quantile: the smallest sample with at least `q·n` samples
/// at or below it.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// How many samples lie strictly above the `q` nearest-rank position.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Calls `step(k)` for op `k` over whole passes of `0..len`: one pass, then
/// as many more as make the total closest to `secs`. Whole passes keep the
/// op mix of every run the same.
pub fn run_passes(secs: f64, len: usize, mut step: impl FnMut(usize)) {
    let start = Instant::now();
    (0..len).for_each(&mut step);
    let first = start.elapsed().as_secs_f64();
    let passes = ((secs / first.max(1e-9)).round() as usize).max(1);
    for _ in 1..passes {
        (0..len).for_each(&mut step);
    }
}

/// Small deterministic generator (SplitMix64) for the benchmark's inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(200, 0.95), 10);
    }
}
