use serde::{Deserialize, Serialize};

use mood_geo::GeoPoint;
use mood_trace::Trace;

/// Spatio-temporal distortion (paper Eq. 8, from the HMC paper \[23\]).
///
/// For every record `x = (p, t)` of the obfuscated trace `T'`, the
/// *temporal projection* of `x` into the original trace `T` is `T`'s
/// interpolated position at time `t` (clamped to `T`'s extent). The STD
/// is the mean distance in meters between each obfuscated record and its
/// projection:
///
/// ```text
/// STD(T, T') = (1/|T'|) Σ_{x ∈ T'} d(x, proj_T(x.t))
/// ```
///
/// Lower is better; `STD(T, T) = 0`.
///
/// Both traces are time-sorted, so the projections are found in one
/// merge walk over them ([`Trace::interpolate_forward`]). This is
/// [`spatio_temporal_distortion_bounded`] with an infinite bound.
///
/// # Examples
///
/// ```
/// use mood_geo::GeoPoint;
/// use mood_trace::{Record, Timestamp, Trace, UserId};
/// use mood_metrics::spatio_temporal_distortion;
///
/// let orig = Trace::new(UserId::new(1), vec![
///     Record::new(GeoPoint::new(46.0, 6.0)?, Timestamp::from_unix(0)),
///     Record::new(GeoPoint::new(46.0, 6.2)?, Timestamp::from_unix(100)),
/// ])?;
/// assert_eq!(spatio_temporal_distortion(&orig, &orig), 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn spatio_temporal_distortion(original: &Trace, obfuscated: &Trace) -> f64 {
    spatio_temporal_distortion_bounded(original, obfuscated, f64::INFINITY)
        .expect("no mean exceeds an infinite bound")
}

/// [`spatio_temporal_distortion`], abandoned as soon as it provably
/// exceeds `bound`.
///
/// Returns `Some` with exactly the bits of the unbounded STD when that
/// value is at most `bound` (or NaN), and `None` when it is greater.
///
/// STD is a mean of non-negative distances summed in record order, and
/// adding a non-negative term never lowers a floating-point sum, so
/// each running sum divided by `|T'|` is a lower bound of the final
/// mean. The walk stops at the first running mean above `bound`
/// (tested once per block of eight records). A
/// candidate search passes the best STD completed so far: a candidate
/// that can only lose stops early, while one that ties or wins is
/// computed in full.
pub fn spatio_temporal_distortion_bounded(
    original: &Trace,
    obfuscated: &Trace,
    bound: f64,
) -> Option<f64> {
    let n = obfuscated.len() as f64;
    let mut cursor = 0;
    let mut sum = 0.0;
    // Blocks of records: project the block, measure its distances in
    // lockstep, then add them in record order and test the bound.
    for block in obfuscated.records().chunks(LANES) {
        // Unused tail lanes measure a dummy pair that is never added.
        let mut projected = [block[0].point(); LANES];
        let mut points = projected;
        for (i, r) in block.iter().enumerate() {
            projected[i] = original.interpolate_forward(r.time(), &mut cursor);
            points[i] = r.point();
        }
        let distances = GeoPoint::haversine_lanes(&projected, &points);
        for d in &distances[..block.len()] {
            sum += d;
        }
        if sum / n > bound {
            return None;
        }
    }
    Some(sum / n)
}

/// Records whose distances are measured together.
const LANES: usize = 8;

/// The four utility bands of the paper's Figure 9, classifying a user's
/// STD value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DistortionBand {
    /// STD < 500 m — fit for precise sensing (e.g. noise maps).
    Low,
    /// 500 m ≤ STD < 1 km — fit for area-level sensing (e.g. pollution).
    Medium,
    /// 1 km ≤ STD < 5 km — fit for coarse analyses (e.g. weather).
    High,
    /// STD ≥ 5 km.
    ExtremelyHigh,
}

impl DistortionBand {
    /// Classifies an STD value in meters.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite value (STD is a mean of
    /// distances, so this indicates a bug upstream).
    pub fn classify(std_m: f64) -> Self {
        assert!(
            std_m.is_finite() && std_m >= 0.0,
            "STD must be a non-negative finite value, got {std_m}"
        );
        if std_m < 500.0 {
            DistortionBand::Low
        } else if std_m < 1_000.0 {
            DistortionBand::Medium
        } else if std_m < 5_000.0 {
            DistortionBand::High
        } else {
            DistortionBand::ExtremelyHigh
        }
    }

    /// All bands, best to worst.
    pub fn all() -> [DistortionBand; 4] {
        [
            DistortionBand::Low,
            DistortionBand::Medium,
            DistortionBand::High,
            DistortionBand::ExtremelyHigh,
        ]
    }

    /// The paper's label for the band.
    pub fn label(&self) -> &'static str {
        match self {
            DistortionBand::Low => "Low Distortion < 500 meters",
            DistortionBand::Medium => "Medium Distortion < 1000 meters",
            DistortionBand::High => "High Distortion < 5000 meters",
            DistortionBand::ExtremelyHigh => "Extremely High Distortion > 5000 meters",
        }
    }
}

impl std::fmt::Display for DistortionBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::{GeoPoint, LocalProjection};
    use mood_trace::{Record, Timestamp, UserId};

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    fn line_trace() -> Trace {
        let records: Vec<Record> = (0..11)
            .map(|i| rec(46.0 + i as f64 * 0.001, 6.0, i * 100))
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn identity_has_zero_std() {
        let t = line_trace();
        assert_eq!(spatio_temporal_distortion(&t, &t), 0.0);
    }

    #[test]
    fn constant_offset_gives_offset_distance() {
        let t = line_trace();
        // displace every record 300 m east
        let displaced: Vec<Record> = t
            .records()
            .iter()
            .map(|r| {
                let proj = LocalProjection::new(r.point());
                r.with_point(proj.to_geo(300.0, 0.0))
            })
            .collect();
        let t2 = Trace::new(UserId::new(1), displaced).unwrap();
        let std = spatio_temporal_distortion(&t, &t2);
        assert!((std - 300.0).abs() < 1.0, "std = {std}");
    }

    #[test]
    fn interpolates_between_records() {
        // original has records at t=0 and t=100; obfuscated record at
        // t=50 exactly at the midpoint -> zero distortion
        let orig =
            Trace::new(UserId::new(1), vec![rec(46.0, 6.0, 0), rec(46.2, 6.0, 100)]).unwrap();
        let obf = Trace::new(UserId::new(1), vec![rec(46.1, 6.0, 50)]).unwrap();
        let std = spatio_temporal_distortion(&orig, &obf);
        assert!(std < 1.0, "std = {std}");
    }

    #[test]
    fn subtrace_timestamps_clamp() {
        // obfuscated record after original's end projects to last point
        let orig =
            Trace::new(UserId::new(1), vec![rec(46.0, 6.0, 0), rec(46.1, 6.0, 100)]).unwrap();
        let obf = Trace::new(UserId::new(1), vec![rec(46.1, 6.0, 10_000)]).unwrap();
        assert!(spatio_temporal_distortion(&orig, &obf) < 1.0);
    }

    #[test]
    fn more_records_in_obfuscated_is_fine() {
        // TRL-style 3x duplication: STD is an average, not a sum
        let t = line_trace();
        let tripled: Vec<Record> = t.records().iter().flat_map(|r| [*r, *r, *r]).collect();
        let t3 = Trace::new(UserId::new(1), tripled).unwrap();
        assert!(spatio_temporal_distortion(&t, &t3) < 1e-9);
    }

    #[test]
    fn band_classification_boundaries() {
        assert_eq!(DistortionBand::classify(0.0), DistortionBand::Low);
        assert_eq!(DistortionBand::classify(499.9), DistortionBand::Low);
        assert_eq!(DistortionBand::classify(500.0), DistortionBand::Medium);
        assert_eq!(DistortionBand::classify(999.9), DistortionBand::Medium);
        assert_eq!(DistortionBand::classify(1_000.0), DistortionBand::High);
        assert_eq!(DistortionBand::classify(4_999.9), DistortionBand::High);
        assert_eq!(
            DistortionBand::classify(5_000.0),
            DistortionBand::ExtremelyHigh
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn band_rejects_nan() {
        DistortionBand::classify(f64::NAN);
    }

    #[test]
    fn bands_ordered_best_to_worst() {
        let all = DistortionBand::all();
        for pair in all.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn labels_match_paper_figure9() {
        assert!(DistortionBand::Low.label().contains("500"));
        assert!(DistortionBand::ExtremelyHigh.to_string().contains("5000"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mood_geo::GeoPoint;
    use mood_trace::{Record, Timestamp, UserId};
    use proptest::prelude::*;

    /// Traces with strictly increasing timestamps — co-timestamped
    /// records make the temporal projection ambiguous, so `STD(T, T) = 0`
    /// only holds for injective time axes.
    fn arb_trace() -> impl Strategy<Value = Trace> {
        proptest::collection::vec((1i64..2_000, -0.2f64..0.2, -0.2f64..0.2), 1..60).prop_map(
            |tuples| {
                let mut t_acc = 0i64;
                let records: Vec<Record> = tuples
                    .into_iter()
                    .map(|(dt, dlat, dlng)| {
                        t_acc += dt;
                        Record::new(
                            GeoPoint::new(46.0 + dlat, 6.0 + dlng).unwrap(),
                            Timestamp::from_unix(t_acc),
                        )
                    })
                    .collect();
                Trace::new(UserId::new(1), records).unwrap()
            },
        )
    }

    /// The STD as it stood before the merge walk — one binary search
    /// per obfuscated record — kept verbatim as the bit-exactness
    /// oracle.
    fn std_oracle(original: &Trace, obfuscated: &Trace) -> f64 {
        let interpolate_at = |t: Timestamp| {
            let records = original.records();
            if t <= original.start_time() {
                return records[0].point();
            }
            if t >= original.end_time() {
                return records[records.len() - 1].point();
            }
            let i = records.partition_point(|r| r.time() < t);
            let before = &records[i - 1];
            let after = &records[i];
            let span = after.time().since(before.time()).as_secs();
            if span == 0 {
                return before.point();
            }
            let f = t.since(before.time()).as_secs() as f64 / span as f64;
            before.point().lerp(&after.point(), f)
        };
        let mut sum = 0.0;
        for r in obfuscated.records() {
            let projected = interpolate_at(r.time());
            sum += projected.haversine_distance(&r.point());
        }
        sum / obfuscated.len() as f64
    }

    /// Traces whose timestamps may repeat (step 0), starting anywhere in
    /// `[−4000, 4000)`: against another such trace, records fall before,
    /// inside and after the original's time span.
    fn arb_trace_with_duplicates() -> impl Strategy<Value = Trace> {
        (
            -4_000i64..4_000,
            proptest::collection::vec((0i64..3, 0i64..400, -0.2f64..0.2, -0.2f64..0.2), 1..60),
        )
            .prop_map(|(start, tuples)| {
                let mut t_acc = start;
                let records: Vec<Record> = tuples
                    .into_iter()
                    .map(|(repeat, dt, dlat, dlng)| {
                        // One step in three repeats the previous instant.
                        if repeat > 0 {
                            t_acc += dt;
                        }
                        Record::new(
                            GeoPoint::new(46.0 + dlat, 6.0 + dlng).unwrap(),
                            Timestamp::from_unix(t_acc),
                        )
                    })
                    .collect();
                Trace::new(UserId::new(1), records).unwrap()
            })
    }

    /// TRL's shape: three assisted records per original record, sharing
    /// its timestamp, scattered around it.
    fn trl_triples(trace: &Trace, offsets: &[(f64, f64)]) -> Trace {
        let records: Vec<Record> = trace
            .records()
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                (0..3).map(move |k| {
                    let (dlat, dlng) = offsets[(3 * i + k) % offsets.len()];
                    let p = r.point();
                    r.with_point(GeoPoint::new(p.lat() + dlat, p.lng() + dlng).unwrap())
                })
            })
            .collect();
        Trace::new(trace.user(), records).unwrap()
    }

    /// Bounds on both sides of `v`, including `v` itself and its
    /// neighbouring floats, where an off-by-one-ulp prune would show.
    fn bounds_around(v: f64) -> Vec<f64> {
        let mut bounds = vec![0.0, v, v * 0.5, v * 2.0, f64::INFINITY];
        if v > 0.0 {
            bounds.push(f64::from_bits(v.to_bits() - 1));
        }
        bounds.push(f64::from_bits(v.to_bits() + 1));
        bounds
    }

    fn assert_bounded_matches(a: &Trace, b: &Trace) {
        let v = std_oracle(a, b);
        for bound in bounds_around(v) {
            let got = spatio_temporal_distortion_bounded(a, b, bound);
            if v <= bound {
                assert_eq!(got.map(f64::to_bits), Some(v.to_bits()), "bound {bound}");
            } else {
                assert_eq!(got, None, "v = {v}, bound {bound}");
            }
        }
    }

    proptest! {
        #[test]
        fn merge_walk_matches_the_binary_search_oracle(
            a in arb_trace_with_duplicates(),
            b in arb_trace_with_duplicates()
        ) {
            prop_assert_eq!(
                spatio_temporal_distortion(&a, &b).to_bits(),
                std_oracle(&a, &b).to_bits()
            );
            prop_assert_eq!(
                spatio_temporal_distortion(&a, &a).to_bits(),
                std_oracle(&a, &a).to_bits()
            );
        }

        #[test]
        fn merge_walk_matches_the_oracle_on_trl_triples(
            a in arb_trace_with_duplicates(),
            offsets in proptest::collection::vec((-0.01f64..0.01, -0.01f64..0.01), 1..30)
        ) {
            let b = trl_triples(&a, &offsets);
            prop_assert_eq!(
                spatio_temporal_distortion(&a, &b).to_bits(),
                std_oracle(&a, &b).to_bits()
            );
        }

        #[test]
        fn bounded_std_is_exact_within_the_bound_and_none_beyond(
            a in arb_trace_with_duplicates(),
            b in arb_trace_with_duplicates(),
            offsets in proptest::collection::vec((-0.01f64..0.01, -0.01f64..0.01), 1..30)
        ) {
            assert_bounded_matches(&a, &b);
            assert_bounded_matches(&a, &trl_triples(&a, &offsets));
            assert_bounded_matches(&a, &a);
        }

        #[test]
        fn std_nonnegative(a in arb_trace(), b in arb_trace()) {
            prop_assert!(spatio_temporal_distortion(&a, &b) >= 0.0);
        }

        #[test]
        fn std_self_zero(a in arb_trace()) {
            prop_assert!(spatio_temporal_distortion(&a, &a) < 1e-9);
        }

        #[test]
        fn std_bounded_by_max_pairwise_distance(a in arb_trace(), b in arb_trace()) {
            // projections stay inside a's bbox, so STD can't exceed the
            // max distance from any b-record to a's bbox corners.
            let std = spatio_temporal_distortion(&a, &b);
            let abb = a.bounding_box();
            let corners = [
                GeoPoint::new(abb.min_lat(), abb.min_lng()).unwrap(),
                GeoPoint::new(abb.min_lat(), abb.max_lng()).unwrap(),
                GeoPoint::new(abb.max_lat(), abb.min_lng()).unwrap(),
                GeoPoint::new(abb.max_lat(), abb.max_lng()).unwrap(),
            ];
            let max_d = b
                .points()
                .map(|p| {
                    corners
                        .iter()
                        .map(|c| p.haversine_distance(c))
                        .fold(0.0f64, f64::max)
                })
                .fold(0.0f64, f64::max);
            prop_assert!(std <= max_d + 1.0);
        }
    }
}
