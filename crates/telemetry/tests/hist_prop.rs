//! Property tests for [`dse_telemetry::LogHistogram`] against a naive
//! vector oracle: record the same values into both, then check that the
//! histogram's summary statistics and quantiles agree with the exact
//! answers within the documented bucket error.

use dse_telemetry::LogHistogram;
use dse_workloads::rng::Rng;

/// Exact `q`-quantile of a sorted vector, matching the histogram's
/// ceil-rank convention.
fn oracle_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Draws a value spread across many octaves (uniform draws would almost
/// never land in small buckets).
fn draw(rng: &mut Rng) -> u64 {
    let bits = rng.gen_range(0, 40) as u32;
    (rng.next_u64() >> (63 - bits)) >> 1
}

#[test]
fn quantiles_track_oracle_within_bucket_error() {
    let mut rng = Rng::seed_from_u64(0x5eed_0008);
    for round in 0..50 {
        let n = rng.gen_range(1, 400) as usize;
        let mut h = LogHistogram::new();
        let mut vals: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = draw(&mut rng);
            h.record(v);
            vals.push(v);
        }
        vals.sort_unstable();
        assert_eq!(h.count(), n as u64, "round {round}");
        assert_eq!(h.sum(), vals.iter().sum::<u64>(), "round {round}");
        assert_eq!(h.min(), vals[0], "round {round}");
        assert_eq!(h.max(), *vals.last().unwrap(), "round {round}");
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let exact = oracle_percentile(&vals, q);
            let est = h.percentile(q);
            // The estimate is the bucket's upper bound: never below the
            // exact answer, and at most one sub-bucket (1/16th) above.
            assert!(
                est >= exact,
                "round {round} q={q}: est {est} < exact {exact}"
            );
            assert!(
                est <= exact + exact / 16 + 1,
                "round {round} q={q}: est {est} too far above exact {exact}"
            );
        }
    }
}
