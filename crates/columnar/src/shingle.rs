//! App-time shingle packing.
//!
//! The campaign detector (ARCHITECTURE.md §10) summarises a device's
//! monitored install activity as a set of *shingles*: `(app, time-bucket)`
//! pairs packed into one `u64` as `app << 32 | bucket`, where
//! `bucket = t_secs / bucket_secs`. App identifiers are dense `u32`s
//! throughout the pipeline, and a `u32` bucket index covers > 8 000
//! simulated years at the detector's 6-hour granularity; timestamps
//! beyond that (only a hostile snapshot carries one) saturate.

/// Pack one `(app, time)` observation into a shingle.
///
/// `bucket_secs` must be non-zero. `t_secs` can be any `u64` — the
/// install time of a decoded snapshot is wire input — so a bucket index
/// past 32 bits saturates at `u32::MAX` instead of wrapping into the
/// bucket of an unrelated time.
#[inline]
pub fn pack_shingle(app: u32, t_secs: u64, bucket_secs: u64) -> u64 {
    debug_assert!(bucket_secs > 0, "bucket_secs must be non-zero");
    let bucket = (t_secs / bucket_secs).min(u32::MAX as u64);
    ((app as u64) << 32) | bucket
}

/// Recover `(app, bucket_index)` from a packed shingle.
#[inline]
pub fn unpack_shingle(s: u64) -> (u32, u32) {
    ((s >> 32) as u32, (s & 0xFFFF_FFFF) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let s = pack_shingle(7, 100_000, 21_600);
        assert_eq!(unpack_shingle(s), (7, 100_000 / 21_600));
        assert_eq!(unpack_shingle(pack_shingle(u32::MAX, 0, 1)), (u32::MAX, 0));
    }

    #[test]
    fn same_bucket_same_shingle() {
        let b = 21_600;
        assert_eq!(pack_shingle(3, 0, b), pack_shingle(3, b - 1, b));
        assert_ne!(pack_shingle(3, b - 1, b), pack_shingle(3, b, b));
        assert_ne!(pack_shingle(3, 0, b), pack_shingle(4, 0, b));
    }

    /// `t_secs` is wire input: an out-of-range bucket saturates, it
    /// neither panics nor aliases a small bucket.
    #[test]
    fn oversized_bucket_saturates() {
        assert_eq!(unpack_shingle(pack_shingle(9, u64::MAX, 1)), (9, u32::MAX));
        let edge = 21_600 * (1u64 << 32);
        assert_eq!(unpack_shingle(pack_shingle(9, edge, 21_600)), (9, u32::MAX));
        assert_ne!(pack_shingle(9, edge, 21_600), pack_shingle(9, 0, 21_600));
    }
}
