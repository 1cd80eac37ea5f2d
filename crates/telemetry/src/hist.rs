//! Log-bucketed (HDR-style) latency histograms.
//!
//! A [`LogHistogram`] records `u64` values (nanoseconds, by convention)
//! into buckets whose width grows with magnitude: values below 16 are
//! exact, and every octave above that is split into 16 sub-buckets
//! ([`SUB_BITS`] = 4 bits of precision below the most significant bit).
//! Quantile estimates therefore carry at most 1/16 ≈ 6.25% relative
//! error across the full `u64` range, with a fixed 976-slot footprint and
//! O(1) recording — the shape the daemon needs to keep per-request,
//! per-phase, and queue-wait latency distributions alive across tens of
//! thousands of requests without allocation.
//!
//! The JSON form is sparse (`[index, count]` pairs for non-empty buckets
//! only), so `stats` responses stay small for long-tailed distributions.

use crate::json::Json;

/// Sub-bucket precision: each octave splits into `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 4;

/// Sub-buckets per octave.
const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total bucket slots: 16 exact values + 16 sub-buckets for each of the
/// 60 octaves `2^4..2^64`.
pub const NBUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// Bucket index of `v`.
#[inline]
fn index_of(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let octave = msb - SUB_BITS as usize;
        // `v >> octave` keeps the top five bits (16..=31); masking off the
        // leading one leaves the 4-bit sub-bucket.
        SUB_COUNT + octave * SUB_COUNT + ((v >> octave) as usize & (SUB_COUNT - 1))
    }
}

/// Inclusive value range `[low, high]` covered by bucket `idx`.
#[inline]
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB_COUNT {
        (idx as u64, idx as u64)
    } else {
        let octave = (idx - SUB_COUNT) / SUB_COUNT;
        let sub = ((idx - SUB_COUNT) % SUB_COUNT) as u64;
        let low = (SUB_COUNT as u64 + sub) << octave;
        // Parenthesized so the topmost bucket (whose high is u64::MAX)
        // does not overflow on the way there.
        (low, low + ((1u64 << octave) - 1))
    }
}

/// An HDR-style log-bucketed histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Box<[u64; NBUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: Box::new([0; NBUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value. O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// An estimate of the `q`-quantile (`0.0 <= q <= 1.0`): the upper
    /// bound of the bucket holding the value of that rank, clamped to the
    /// recorded min/max so p0/p100 are exact. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let (_, high) = bucket_bounds(idx);
                return high.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Adds `other`'s recordings into `self` (bucket-exact: merging then
    /// querying equals querying the concatenation of recordings).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (s, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *s += *o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sparse JSON form: summary fields plus `[index, count]` pairs for
    /// non-empty buckets.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| Json::Arr(vec![Json::Int(idx as i64), Json::Int(c as i64)]))
            .collect();
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("sum", Json::Int(self.sum as i64)),
            ("min", Json::Int(self.min() as i64)),
            ("max", Json::Int(self.max as i64)),
            ("buckets", Json::Arr(buckets)),
        ])
    }

    /// Parses the form produced by [`LogHistogram::to_json`]. Returns
    /// `None` on malformed input (wrong shape, out-of-range index).
    pub fn from_json(v: &Json) -> Option<LogHistogram> {
        let mut h = LogHistogram::new();
        h.count = v.get("count")?.as_i64()? as u64;
        h.sum = v.get("sum")?.as_i64()? as u64;
        let min = v.get("min")?.as_i64()? as u64;
        h.min = if h.count == 0 { u64::MAX } else { min };
        h.max = v.get("max")?.as_i64()? as u64;
        for pair in v.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            let idx = pair[0].as_i64()?;
            let c = pair[1].as_i64()?;
            if !(0..NBUCKETS as i64).contains(&idx) || c < 0 {
                return None;
            }
            h.counts[idx as usize] += c as u64;
        }
        Some(h)
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
            assert_eq!(index_of(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), 15);
    }

    #[test]
    fn bucket_bounds_invert_index() {
        // Every bucket's bounds map back to that bucket, and bounds tile
        // the value space without gaps.
        let mut expected_next = 0u64;
        for idx in 0..NBUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_next, "gap before bucket {idx}");
            assert_eq!(index_of(lo), idx);
            assert_eq!(index_of(hi), idx);
            if hi == u64::MAX {
                assert_eq!(idx, NBUCKETS - 1);
                return;
            }
            expected_next = hi + 1;
        }
        panic!("buckets did not cover u64::MAX");
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[17, 100, 999, 4096, 1_000_000, u64::MAX / 3] {
            let (lo, hi) = bucket_bounds(index_of(v));
            assert!(lo <= v && v <= hi);
            // Bucket width is at most 1/16 of its lower bound.
            assert!(
                hi - lo <= lo / SUB_COUNT as u64 + 1,
                "bucket too wide at {v}"
            );
        }
    }

    #[test]
    fn json_round_trip() {
        let mut h = LogHistogram::new();
        for v in [0, 3, 17, 900, 1_000_000, 123_456_789] {
            h.record(v);
        }
        let j = h.to_json();
        let back = LogHistogram::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back, h);
        // Empty histograms round-trip too (min sentinel preserved).
        let e = LogHistogram::new();
        let back = LogHistogram::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }
}
