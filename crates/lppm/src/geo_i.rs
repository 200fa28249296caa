use rand::{Rng, RngCore};

use mood_geo::LocalProjection;
use mood_trace::{Record, Trace};

use crate::Lppm;

/// Geo-indistinguishability (Andrés et al. 2013, the paper's \[4\]):
/// ε-differential privacy for locations, achieved by adding planar
/// Laplace noise to every record.
///
/// The noise radius follows the distribution with density
/// `ε² r e^(−εr)` (a Gamma(2, 1/ε)); its mean is `2/ε`. Sampling uses
/// the exact inverse CDF `r = −(1/ε)(W₋₁((p−1)/e) + 1)` with the
/// Lambert-W lower branch, as in the original paper.
///
/// The paper's experiments fix ε = 0.01 m⁻¹ ("medium privacy", §4.1.2),
/// i.e. an average displacement of 200 m.
///
/// # Draw order
///
/// Each record consumes two uniform draws from the RNG, the bearing
/// θ ∈ [0°, 360°) and then the radius probability `p ∈ [0, 1)`, in
/// record order. Records are processed in blocks of eight: a block's
/// draws are all made before its radii are solved (in lockstep, see
/// `lambert_w_minus1_lanes`), which leaves the `(θ, p)` sequence —
/// and so the output and the RNG's stream position afterwards — exactly
/// what one record at a time would give. The stream position matters
/// because a composition hands the same RNG to its next stage.
///
/// # Examples
///
/// ```
/// use mood_lppm::{GeoI, Lppm};
/// use mood_synth::presets;
/// use rand::SeedableRng;
///
/// let ds = presets::privamov_like().scaled(0.1).generate();
/// let trace = ds.iter().next().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let protected = GeoI::paper_default().protect(trace, &mut rng);
/// assert_eq!(protected.len(), trace.len()); // same cardinality
/// assert_ne!(protected.records()[0].point(), trace.records()[0].point());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoI {
    epsilon_per_m: f64,
}

impl GeoI {
    /// Creates a Geo-I mechanism with privacy parameter ε (per meter).
    /// Lower ε = more noise = more privacy.
    ///
    /// # Panics
    ///
    /// Panics when `epsilon_per_m` is not strictly positive and finite.
    pub fn new(epsilon_per_m: f64) -> Self {
        assert!(
            epsilon_per_m.is_finite() && epsilon_per_m > 0.0,
            "epsilon must be positive"
        );
        Self { epsilon_per_m }
    }

    /// The paper's configuration: ε = 0.01 m⁻¹ (mean noise 200 m).
    pub fn paper_default() -> Self {
        Self::new(0.01)
    }

    /// The privacy parameter ε in m⁻¹.
    pub fn epsilon(&self) -> f64 {
        self.epsilon_per_m
    }

    /// Samples a noise radius from the planar Laplace radial distribution
    /// via the exact inverse CDF.
    #[cfg(test)]
    fn sample_radius(&self, rng: &mut dyn RngCore) -> f64 {
        let p: f64 = rng.gen_range(0.0..1.0);
        -(lambert_w_minus1(lambert_argument(p)) + 1.0) / self.epsilon_per_m
    }
}

/// Records whose radii are solved together: enough independent Halley
/// chains to keep the floating-point units busy while one waits on
/// `exp` or a division.
const LANES: usize = 8;

/// The Lambert-W argument `(p − 1)/e` of the inverse radial CDF at
/// probability `p ∈ [0, 1)`.
fn lambert_argument(p: f64) -> f64 {
    (p - 1.0) / std::f64::consts::E
}

impl Lppm for GeoI {
    fn name(&self) -> &str {
        "Geo-I"
    }

    fn protect(&self, trace: &Trace, rng: &mut dyn RngCore) -> Trace {
        let mut records = Vec::new();
        self.protect_into(trace, rng, &mut records);
        Trace::new(trace.user(), records).expect("same cardinality as input")
    }

    fn protect_into(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
        out.clear();
        out.reserve(trace.len());
        // Draw the whole block first (see "Draw order" on [`GeoI`]),
        // then solve its radii together and displace its records.
        for block in trace.records().chunks(LANES) {
            let mut theta = [0.0; LANES];
            // Unused tail lanes solve a harmless argument whose result
            // is discarded.
            let mut x = [lambert_argument(0.5); LANES];
            for i in 0..block.len() {
                theta[i] = rng.gen_range(0.0..360.0);
                x[i] = lambert_argument(rng.gen_range(0.0..1.0));
            }
            let w = lambert_w_minus1_lanes(x);
            for (i, r) in block.iter().enumerate() {
                let radius = -(w[i] + 1.0) / self.epsilon_per_m;
                let proj = LocalProjection::new(r.point());
                let moved = proj
                    .displace(&r.point(), theta[i], radius)
                    .expect("sampled radius is non-negative");
                out.push(r.with_point(moved));
            }
        }
    }
}

/// Lambert W function, lower branch `W₋₁`, for `x ∈ [−1/e, 0)`: the
/// one-lane case of `lambert_w_minus1_lanes`.
#[cfg(test)]
fn lambert_w_minus1(x: f64) -> f64 {
    lambert_w_minus1_lanes([x])[0]
}

/// Lambert W function, lower branch `W₋₁`, of `N` independent arguments
/// in `[−1/e, 0)`.
///
/// Solves `w e^w = x` with `w ≤ −1`, by Halley iteration from an
/// asymptotic initial guess. Absolute residual is below 1e-10 over the
/// whole domain.
///
/// The lanes iterate in lockstep so their `exp`/divide chains overlap,
/// but each lane's value follows exactly the scalar recurrence — its
/// own initial guess, its own 50-step cap and its own stopping test —
/// so every result is bit-identical to solving that argument alone
/// (`N = 1`).
///
/// # Panics
///
/// Panics when any argument is outside `[−1/e, 0)`.
fn lambert_w_minus1_lanes<const N: usize>(x: [f64; N]) -> [f64; N] {
    const NEG_INV_E: f64 = -1.0 / std::f64::consts::E;
    let mut w = x.map(|x| {
        assert!(
            (NEG_INV_E..0.0).contains(&x),
            "W_-1 requires x in [-1/e, 0), got {x}"
        );
        // Initial guess: near the branch point use the series in
        // p = -sqrt(2(1 + e x)); elsewhere the log-log asymptote.
        if x > -0.25 {
            let l1 = (-x).ln();
            let l2 = (-l1).ln();
            l1 - l2
        } else {
            let p = -(2.0 * (1.0 + std::f64::consts::E * x)).max(0.0).sqrt();
            -1.0 + p - p * p / 3.0
        }
    });
    // Every lane computes every step, and a stopped lane discards its
    // step instead of branching around it: the lanes' stopping points
    // are unpredictable, and a mispredicted branch costs more than the
    // discarded arithmetic.
    let mut running = [true; N];
    for _ in 0..50 {
        for i in 0..N {
            let ew = w[i].exp();
            let f = w[i] * ew - x[i];
            let w1 = w[i] + 1.0;
            let denom = ew * w1 - (w[i] + 2.0) * f / (2.0 * w1);
            let delta = f / denom;
            let next = w[i] - delta;
            // The scalar loop stops before stepping when w is at the
            // branch point, and after stepping once the step is small.
            let at_branch_point = w1.abs() < 1e-300;
            let step = running[i] & !at_branch_point;
            w[i] = if step { next } else { w[i] };
            let converged = delta.abs() < 1e-14 * (1.0 + next.abs());
            running[i] = step & !converged;
        }
        if !running.contains(&true) {
            break;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::GeoPoint;
    use mood_trace::{Record, Timestamp, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn walk(n: i64) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    GeoPoint::new(46.2, 6.1).unwrap(),
                    Timestamp::from_unix(i * 600),
                )
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    /// The scalar Halley loop as it stood before the lanes, kept
    /// verbatim as the bit-exactness oracle.
    fn lambert_w_minus1_oracle(x: f64) -> f64 {
        const NEG_INV_E: f64 = -1.0 / std::f64::consts::E;
        assert!(
            (NEG_INV_E..0.0).contains(&x),
            "W_-1 requires x in [-1/e, 0), got {x}"
        );
        let mut w = if x > -0.25 {
            let l1 = (-x).ln();
            let l2 = (-l1).ln();
            l1 - l2
        } else {
            let p = -(2.0 * (1.0 + std::f64::consts::E * x)).max(0.0).sqrt();
            -1.0 + p - p * p / 3.0
        };
        for _ in 0..50 {
            let ew = w.exp();
            let f = w * ew - x;
            let w1 = w + 1.0;
            if w1.abs() < 1e-300 {
                break;
            }
            let denom = ew * w1 - (w + 2.0) * f / (2.0 * w1);
            let delta = f / denom;
            w -= delta;
            if delta.abs() < 1e-14 * (1.0 + w.abs()) {
                break;
            }
        }
        w
    }

    /// Geo-I one record at a time, as it stood before the blocks: the
    /// oracle for both the records and the RNG's stream position.
    fn protect_oracle(geo_i: &GeoI, trace: &Trace, rng: &mut dyn RngCore) -> Vec<Record> {
        trace
            .records()
            .iter()
            .map(|r| {
                let theta: f64 = rng.gen_range(0.0..360.0);
                let p: f64 = rng.gen_range(0.0..1.0);
                let w = lambert_w_minus1_oracle((p - 1.0) / std::f64::consts::E);
                let radius = -(w + 1.0) / geo_i.epsilon_per_m;
                let moved = LocalProjection::new(r.point())
                    .displace(&r.point(), theta, radius)
                    .unwrap();
                r.with_point(moved)
            })
            .collect()
    }

    fn bits(records: &[Record]) -> Vec<(u64, u64, i64)> {
        records
            .iter()
            .map(|r| {
                let p = r.point();
                (p.lat().to_bits(), p.lng().to_bits(), r.time().as_unix())
            })
            .collect()
    }

    /// Hard arguments: at and just above the branch point −1/e, on both
    /// sides of the −0.25 initial-guess switch, and tiny |x| down to
    /// the smallest subnormal.
    fn edge_arguments() -> Vec<f64> {
        let neg_inv_e = -1.0 / std::f64::consts::E;
        let mut xs = vec![neg_inv_e, -0.25, -1e-300, -f64::MIN_POSITIVE, -5e-324];
        for k in 1..=4 {
            let step = f64::EPSILON * k as f64;
            xs.push(neg_inv_e + step);
            xs.push(-0.25 + step);
            xs.push(-0.25 - step);
        }
        for e in [1e-16, 1e-12, 1e-8, 1e-4] {
            xs.push(neg_inv_e + e);
            xs.push(-0.25 + e);
            xs.push(-0.25 - e);
            xs.push(-e);
        }
        xs.push(f64::from_bits((-0.25f64).to_bits() - 1));
        xs.push(f64::from_bits((-0.25f64).to_bits() + 1));
        xs
    }

    #[test]
    fn lanes_match_the_scalar_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut xs = edge_arguments();
        xs.extend((0..4_000).map(|_| {
            let p: f64 = rng.gen_range(0.0..1.0);
            (p - 1.0) / std::f64::consts::E
        }));
        // Neighbouring lanes need different iteration counts, so one
        // lane stopping must not stop or perturb another.
        for block in xs.chunks(8) {
            let mut x = [-0.3; 8];
            x[..block.len()].copy_from_slice(block);
            let lanes = lambert_w_minus1_lanes(x);
            for (xi, wi) in x.iter().zip(lanes) {
                let want = lambert_w_minus1_oracle(*xi);
                assert_eq!(wi.to_bits(), want.to_bits(), "x = {xi:e}");
                assert_eq!(lambert_w_minus1(*xi).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "W_-1 requires")]
    fn lanes_reject_an_out_of_domain_lane() {
        lambert_w_minus1_lanes([-0.3, -0.2, -0.5, -0.1]);
    }

    #[test]
    fn protect_matches_the_record_at_a_time_oracle_on_ragged_lengths() {
        for n in [1, 2, 7, 8, 9, 15, 16, 17, 31, 100] {
            for seed in 0..3 {
                let t = walk(n);
                let geo_i = GeoI::new(0.004);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                let mut out = Vec::new();
                geo_i.protect_into(&t, &mut rng, &mut out);
                let want = protect_oracle(&geo_i, &t, &mut oracle_rng);
                assert_eq!(bits(&out), bits(&want), "n = {n}, seed {seed}");
                // A composition's next stage continues from here.
                assert_eq!(rng, oracle_rng, "RNG position after n = {n}");
            }
        }
    }

    #[test]
    fn lambert_w_residuals_small() {
        for &x in &[-0.367879, -0.3, -0.2, -0.1, -0.05, -0.01, -1e-4, -1e-8] {
            let w = lambert_w_minus1(x);
            let residual = (w * w.exp() - x).abs();
            assert!(residual < 1e-10, "x={x}: w={w}, residual={residual}");
            assert!(w <= -1.0 + 1e-9, "x={x}: w={w} not on lower branch");
        }
    }

    #[test]
    fn lambert_w_branch_point() {
        let w = lambert_w_minus1(-1.0 / std::f64::consts::E + 1e-12);
        assert!((w + 1.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    #[should_panic(expected = "W_-1 requires")]
    fn lambert_w_rejects_positive() {
        lambert_w_minus1(0.5);
    }

    #[test]
    fn noise_mean_matches_two_over_epsilon() {
        let geo_i = GeoI::new(0.01);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| geo_i.sample_radius(&mut rng)).sum::<f64>() / n as f64;
        // Gamma(2, 1/eps) mean = 2/eps = 200 m
        assert!((mean - 200.0).abs() < 5.0, "mean = {mean}");
    }

    #[test]
    fn displacement_distribution_matches_radial_cdf() {
        // CDF C(r) = 1 - (1 + eps r) e^{-eps r}; check the median.
        let geo_i = GeoI::new(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let mut radii: Vec<f64> = (0..10_000).map(|_| geo_i.sample_radius(&mut rng)).collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = radii[radii.len() / 2];
        // analytic median of Gamma(2, scale=100) ≈ 167.83 m
        assert!((median - 167.8).abs() < 6.0, "median = {median}");
    }

    #[test]
    fn protect_preserves_timestamps_and_count() {
        let t = walk(50);
        let mut rng = StdRng::seed_from_u64(3);
        let p = GeoI::paper_default().protect(&t, &mut rng);
        assert_eq!(p.len(), t.len());
        assert_eq!(p.user(), t.user());
        for (a, b) in t.records().iter().zip(p.records()) {
            assert_eq!(a.time(), b.time());
        }
    }

    #[test]
    fn average_displacement_near_200m() {
        let t = walk(2_000);
        let mut rng = StdRng::seed_from_u64(5);
        let p = GeoI::paper_default().protect(&t, &mut rng);
        let mean: f64 = t
            .records()
            .iter()
            .zip(p.records())
            .map(|(a, b)| a.point().haversine_distance(&b.point()))
            .sum::<f64>()
            / t.len() as f64;
        assert!((mean - 200.0).abs() < 15.0, "mean displacement {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let t = walk(20);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let g = GeoI::paper_default();
        assert_eq!(g.protect(&t, &mut r1), g.protect(&t, &mut r2));
    }

    #[test]
    fn smaller_epsilon_means_more_noise() {
        let t = walk(500);
        let mean_disp = |eps: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = GeoI::new(eps).protect(&t, &mut rng);
            t.records()
                .iter()
                .zip(p.records())
                .map(|(a, b)| a.point().haversine_distance(&b.point()))
                .sum::<f64>()
                / t.len() as f64
        };
        assert!(mean_disp(0.001, 1) > 4.0 * mean_disp(0.01, 1));
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_bad_epsilon() {
        GeoI::new(0.0);
    }
}
