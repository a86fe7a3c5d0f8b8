//! The benchmark's own reference arithmetic: Pareto fronts, ADRS, MAPE,
//! nearest-rank percentiles and a seeded generator.
//!
//! These are written apart from the `dse` and `gnn` crates on purpose: the
//! output checks score the program with them, so a fault in the program's
//! own scoring code cannot hide a fault in what it scores.

/// ZCU102 capacities that fold LUT/FF/DSP into one area objective (the
/// same device the DSE crate scores against).
const LUT_CAP: f64 = 274_080.0;
const FF_CAP: f64 = 548_160.0;
const DSP_CAP: f64 = 2_520.0;

/// `(latency, area)` objective point of a QoR, both minimized.
pub fn objective(q: &hlsim::Qor) -> (f64, f64) {
    (
        q.latency as f64,
        q.lut as f64 / LUT_CAP + q.ff as f64 / FF_CAP + q.dsp as f64 / DSP_CAP,
    )
}

/// Indices of the non-dominated points, in input order. Of several equal
/// points only the first is kept.
pub fn pareto_indices(points: &[(f64, f64)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            let p = points[i];
            !points.iter().enumerate().any(|(j, &q)| {
                let dominates = q.0 <= p.0 && q.1 <= p.1 && (q.0 < p.0 || q.1 < p.1);
                dominates || (q == p && j < i)
            })
        })
        .collect()
}

/// Average distance from reference set, as a fraction: for every point of
/// the exact front of `exact`, the smallest worst-objective relative
/// regression of any point of `approx`, averaged. Zero when either set is
/// empty.
pub fn adrs(exact: &[(f64, f64)], approx: &[(f64, f64)]) -> f64 {
    let front = pareto_indices(exact);
    if front.is_empty() || approx.is_empty() {
        return 0.0;
    }
    let total: f64 = front
        .iter()
        .map(|&i| {
            let g = exact[i];
            approx
                .iter()
                .map(|w| {
                    let d_lat = (w.0 - g.0) / g.0.max(1e-12);
                    let d_area = (w.1 - g.1) / g.1.max(1e-12);
                    d_lat.max(d_area).max(0.0)
                })
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / front.len() as f64
}

/// ADRS of a predictor's front: the points the predictor calls
/// Pareto-optimal, scored at their true objectives against the true front.
pub fn predicted_front_adrs(truth: &[(f64, f64)], predicted: &[(f64, f64)]) -> f64 {
    let chosen: Vec<(f64, f64)> = pareto_indices(predicted)
        .into_iter()
        .map(|i| truth[i])
        .collect();
    adrs(truth, &chosen)
}

/// Mean absolute percentage error in percent; targets of zero are skipped.
pub fn mape(pred: &[f64], target: &[f64]) -> f64 {
    let terms: Vec<f64> = pred
        .iter()
        .zip(target)
        .filter(|(_, &t)| t != 0.0)
        .map(|(&p, &t)| ((p - t) / t).abs())
        .collect();
    if terms.is_empty() {
        return 0.0;
    }
    100.0 * terms.iter().sum::<f64>() / terms.len() as f64
}

/// Nearest-rank percentile `q` in `(0, 100]` of an ascending slice: the
/// smallest value with at least `q`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples: the middle value, or the mean of the two
/// middle values of an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Figures of one unit of a run (a sweep round, a one-second window of
/// replies, a fit): its throughput, its operations' latency, and the CPU
/// time the host's hypervisor took from this machine meanwhile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    /// Work per second.
    pub per_s: f64,
    /// Median operation latency.
    pub p50_ms: f64,
    /// 90th-percentile operation latency.
    pub p90_ms: f64,
    /// Steal time per second of the unit, in clock ticks over all CPUs.
    pub steal_per_s: f64,
}

/// A run's figures from its calm units: those whose steal rate is at most
/// the 25th percentile (nearest rank) of the run's steal rates, each figure
/// the median over them. A unit whose CPUs the hypervisor handed to other
/// tenants measures the host, not the program; where the host reports no
/// steal every unit is calm and these are plain medians.
///
/// # Panics
///
/// Panics when there are no units.
pub fn calm_median(units: &[Unit]) -> Unit {
    let mut steal: Vec<f64> = units.iter().map(|u| u.steal_per_s).collect();
    steal.sort_by(f64::total_cmp);
    let limit = percentile(&steal, 25.0);
    let calm: Vec<&Unit> = units.iter().filter(|u| u.steal_per_s <= limit).collect();
    let of = |f: fn(&Unit) -> f64| median(&calm.iter().map(|u| f(u)).collect::<Vec<_>>());
    Unit {
        per_s: of(|u| u.per_s),
        p50_ms: of(|u| u.p50_ms),
        p90_ms: of(|u| u.p90_ms),
        steal_per_s: of(|u| u.steal_per_s),
    }
}

/// SplitMix64: a small seeded generator, so workload inputs depend only on
/// `--seed` and this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in stream `stream` (distinct streams of one
    /// seed are independent).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_keeps_only_non_dominated_points() {
        // (3,6) is dominated by (2,5); the duplicate (2,5) is kept once;
        // (4,1) trades latency for area and stays
        let pts = [(1.0, 10.0), (2.0, 5.0), (3.0, 6.0), (2.0, 5.0), (4.0, 1.0)];
        assert_eq!(pareto_indices(&pts), vec![0, 1, 4]);
        assert!(pareto_indices(&[]).is_empty());
        // a point equal in one objective and worse in the other is dominated
        assert_eq!(pareto_indices(&[(1.0, 2.0), (1.0, 3.0)]), vec![0]);
    }

    #[test]
    fn adrs_matches_hand_computed_cases() {
        let exact = [(10.0, 4.0), (20.0, 2.0), (30.0, 5.0)];
        // the exact front is {(10,4), (20,2)}; approximating it by itself
        // costs nothing
        assert_eq!(adrs(&exact, &[(10.0, 4.0), (20.0, 2.0)]), 0.0);
        // one approximate point (20,2): for (10,4) the latency regression is
        // (20-10)/10 = 1.0, area improves, so 1.0; for (20,2) it is 0.
        // Mean = 0.5.
        assert!((adrs(&exact, &[(20.0, 2.0)]) - 0.5).abs() < 1e-12);
        // (11, 3): for (10,4) max(0.1, -0.25) = 0.1; for (20,2)
        // max(-0.45, 0.5) = 0.5; min over the single point, mean = 0.3
        assert!((adrs(&exact, &[(11.0, 3.0)]) - 0.3).abs() < 1e-12);
        assert_eq!(adrs(&exact, &[]), 0.0);
    }

    #[test]
    fn predicted_front_is_scored_at_truth() {
        let truth = [(10.0, 4.0), (20.0, 2.0), (30.0, 5.0)];
        // the predictor believes design 2 dominates everything: its true
        // point (30,5) is 2.0 late against (10,4) and 1.5 large against
        // (20,2) → mean of max(2.0, 0.25)=2.0 and max(0.5, 1.5)=1.5 = 1.75
        let pred = [(5.0, 5.0), (6.0, 6.0), (1.0, 1.0)];
        assert!((predicted_front_adrs(&truth, &pred) - 1.75).abs() < 1e-12);
        assert_eq!(predicted_front_adrs(&truth, &truth), 0.0);
    }

    #[test]
    fn dse_crate_agrees_with_the_reference() {
        let truth = [(10.0, 4.0), (20.0, 2.0), (30.0, 5.0), (15.0, 3.5)];
        let approx = [(20.0, 2.0), (30.0, 5.0)];
        let ours = adrs(&truth, &approx);
        let theirs = dse::Adrs::compute(&truth, &approx).value();
        assert!((ours - theirs).abs() < 1e-12, "{ours} vs {theirs}");
        let front: Vec<usize> = dse::ParetoFront::from_points(&truth).indices().to_vec();
        let mut mine = pareto_indices(&truth);
        mine.sort_unstable();
        let mut theirs = front;
        theirs.sort_unstable();
        assert_eq!(mine, theirs);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // 4 samples: rank ceil(0.5*4)=2, ceil(0.9*4)=4
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&w, 50.0), 2.0);
        assert_eq!(percentile(&w, 90.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn calm_median_keeps_the_units_with_least_steal() {
        let unit = |per_s: f64, steal_per_s: f64| Unit {
            per_s,
            p50_ms: 1000.0 / per_s,
            p90_ms: 2000.0 / per_s,
            steal_per_s,
        };
        // 8 units; the 25th-percentile steal rate is rank ceil(0.25*8)=2,
        // i.e. 1.0, so the calm units are the three with steal 0, 1, 1
        let units = [
            unit(100.0, 0.0),
            unit(60.0, 30.0),
            unit(90.0, 1.0),
            unit(70.0, 20.0),
            unit(110.0, 1.0),
            unit(50.0, 40.0),
            unit(80.0, 5.0),
            unit(75.0, 12.0),
        ];
        let c = calm_median(&units);
        // median of 90, 100, 110
        assert_eq!(c.per_s, 100.0);
        assert_eq!(c.p50_ms, 10.0);
        assert_eq!(c.p90_ms, 20.0);
        assert_eq!(c.steal_per_s, 1.0);
        // no steal anywhere: every unit is calm, plain medians
        let flat: Vec<Unit> = [3.0, 1.0, 2.0].map(|r| unit(r, 0.0)).to_vec();
        assert_eq!(calm_median(&flat).per_s, 2.0);
        // two calm units of four: both figures are their means, so
        // throughput and latency come from the same units
        let pair = [
            unit(100.0, 0.0),
            unit(50.0, 9.0),
            unit(80.0, 0.0),
            unit(40.0, 7.0),
        ];
        let c = calm_median(&pair);
        assert_eq!(c.per_s, 90.0);
        assert_eq!(c.p50_ms, (10.0 + 12.5) / 2.0);
    }

    #[test]
    fn mape_skips_zero_targets() {
        assert!((mape(&[110.0, 45.0, 9.0], &[100.0, 50.0, 0.0]) - 10.0).abs() < 1e-12);
        assert_eq!(mape(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(5, 0);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(5, 0);
                move |_| r.next_u64()
            })
            .collect();
        let mut c = Rng::new(5, 1);
        assert_eq!(a, b);
        assert_ne!(a[0], c.next_u64());
        let mut r = Rng::new(9, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
