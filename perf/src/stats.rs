//! Order statistics over repetition times, and the calibration loop.

/// The sample at quantile `q` of `sorted` by nearest rank: the smallest
/// sample with at least `q` of the data at or below it.
///
/// Nearest rank always returns a value that was measured; `rep_ms_p75`
/// over 40 samples is the 30th, which leaves 10 samples beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here is the
/// spread the acceptance rule computes. Needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// A fixed single-threaded integer loop (splitmix64 fill, FNV-1a fold) over
/// 16 MiB, timed in milliseconds. It runs before and after every workload's
/// timed repetitions: if the machine itself got faster or slower in
/// between, the ratio leaves 1 and the host times cannot be trusted.
///
/// The result is the median pass of 200 ms of passes (about 30). The
/// fastest pass would read the same on a machine that loses a third of
/// its cycles to a neighbour in bursts — the disturbance the guard is
/// there to catch — and a handful of passes would read an idle machine's
/// first 80 ms (clock ramp-up) as drift.
pub fn calib_ms() -> f64 {
    const WORDS: usize = (16 << 20) / 8;
    let mut buf = vec![0u64; WORDS];
    let mut passes = Vec::new();
    let start = std::time::Instant::now();
    while start.elapsed().as_millis() < 200 {
        let t0 = std::time::Instant::now();
        let mut x = std::hint::black_box(passes.len() as u64);
        for w in buf.iter_mut() {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *w = z ^ (z >> 31);
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in &buf {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
        std::hint::black_box(h);
        passes.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&passes)
}

/// Resets the kernel's peak-RSS mark of this process to its current RSS,
/// so that `VmHWM` read after a repetition is that repetition's peak.
/// `false` where `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`], or `None` where `/proc` does not
/// offer it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selects_a_measured_sample_by_nearest_rank() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 of 40 is the 30th sample: exactly ten lie beyond it.
        assert_eq!(percentile(&v, 0.75), 30.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.75)).count(), 10);
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.75), 7.0);
        // Rank rounds up: 0.75 × 5 = 3.75 → 4th.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
