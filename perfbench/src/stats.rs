//! Timing helpers: medians, time-boxed repetition, and peak RSS.

use std::time::{Duration, Instant};

/// The median of `xs` (mean of the middle pair for even lengths);
/// 0 for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        0.5 * (v[mid - 1] + v[mid])
    } else {
        v[mid]
    }
}

/// Seconds `f` takes.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Seconds one run of [`calibration_s`]'s fixed integer loop took at
/// its fastest on an otherwise idle host (a 2-vCPU Intel Xeon VM).
pub const CALIBRATION_REF_S: f64 = 2.08e-3;

/// Seconds one run of a fixed, cache-resident integer loop takes now.
/// The loop is part of the benchmark, never of the measured program, so
/// its time moves only with the host's speed (clock, co-tenants).
#[must_use]
pub fn calibration_s() -> f64 {
    time(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..1_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x.wrapping_mul(i | 1));
        }
        std::hint::black_box(acc)
    })
    .0
}

/// Calls `f` until `budget` has passed and at least `min` times (at most
/// `max`), returning each call's seconds. Stops at the first error.
///
/// # Errors
///
/// Returns `f`'s first error.
pub fn repeat_for<E>(
    budget: Duration,
    min: usize,
    max: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<Vec<f64>, E> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < max && (times.len() < min || start.elapsed() < budget) {
        let t0 = Instant::now();
        f()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// Median seconds of `f` over a time-boxed repetition (see
/// [`repeat_for`]) that cannot fail.
pub fn median_time(budget: Duration, min: usize, max: usize, mut f: impl FnMut()) -> f64 {
    let times = repeat_for::<()>(budget, min, max, || {
        f();
        Ok(())
    });
    median(&times.unwrap_or_default())
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 where
/// procfs is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn repeat_for_honours_min_and_max() {
        let mut n = 0;
        let t = repeat_for::<()>(Duration::ZERO, 3, 10, || {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!((t.len(), n), (3, 3));
        let t = repeat_for::<()>(Duration::from_secs(60), 1, 4, || Ok(())).unwrap();
        assert_eq!(t.len(), 4);
    }
}
