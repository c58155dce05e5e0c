//! Word-parallel search kernels for the snapshot evaluator.
//!
//! The snapshot index stores each direction's breakpoints twice: as the
//! `(constant, rank)` tuples the mutation path binary-searches, and as a
//! parallel array of order-preserving `u64` encodings ([`SnapKey::encode`])
//! that these kernels consume. [`lower_bound_u64`] answers "first position
//! whose encoded key is ≥ target" — the batched evaluator turns every
//! per-direction `partition_point` into one of these over a galloped window.
//!
//! Two implementations share one contract and are proptest-checked against
//! each other (`crates/index/tests/proptests.rs`):
//!
//! * [`lower_bound_scalar`] — `slice::partition_point`, the reference.
//! * [`lower_bound_portable`] — branchless halving to a small window, then a
//!   counting scan over `u64` lanes that the compiler auto-vectorizes.

/// Order-preserving `u64` encoding for snapshot key types.
///
/// The contract is `a < b ⟺ a.encode() < b.encode()` under *unsigned* `u64`
/// order, so one unsigned kernel serves every key kind.
pub trait SnapKey: Ord + Copy + std::fmt::Debug {
    /// Encodes the key into the unsigned comparison domain.
    fn encode(self) -> u64;
}

impl SnapKey for i64 {
    /// Sign-bias flip: maps `i64::MIN..=i64::MAX` onto `0..=u64::MAX`
    /// monotonically.
    #[inline]
    fn encode(self) -> u64 {
        (self as u64) ^ (1 << 63)
    }
}

impl SnapKey for u32 {
    /// Interned-symbol ids are already unsigned; widen.
    #[inline]
    fn encode(self) -> u64 {
        self as u64
    }
}

/// First index `i` in sorted `a` with `a[i] >= target` — the reference
/// implementation the portable kernel is checked against.
#[inline]
pub fn lower_bound_scalar(a: &[u64], target: u64) -> usize {
    a.partition_point(|&x| x < target)
}

/// First index `i` in sorted `a` with `a[i] >= target`: the kernel the
/// batched evaluator calls, [`lower_bound_portable`].
#[inline]
pub fn lower_bound_u64(a: &[u64], target: u64) -> usize {
    lower_bound_portable(a, target)
}

/// Portable kernel: branchless binary halving down to a window of at most
/// eight elements, then a counting scan (`x < target` summed as 0/1 lanes)
/// that LLVM auto-vectorizes. Equivalent to [`lower_bound_scalar`] on every
/// sorted input.
pub fn lower_bound_portable(a: &[u64], target: u64) -> usize {
    let mut base = 0usize;
    let mut len = a.len();
    while len > 8 {
        let half = len / 2;
        // Branchless: advance `base` only when the pivot sorts below target.
        base += usize::from(a[base + half - 1] < target) * half;
        len -= half;
    }
    // The window is sorted, so the count of elements below target *is* the
    // offset of the partition point within it.
    let mut cnt = 0usize;
    for &x in &a[base..base + len] {
        cnt += usize::from(x < target);
    }
    base + cnt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all(a: &[u64], target: u64) {
        let want = lower_bound_scalar(a, target);
        assert_eq!(
            lower_bound_portable(a, target),
            want,
            "portable {a:?} {target}"
        );
        assert_eq!(lower_bound_u64(a, target), want, "dispatch {a:?} {target}");
    }

    #[test]
    fn empty_and_singleton() {
        check_all(&[], 0);
        check_all(&[], u64::MAX);
        check_all(&[7], 6);
        check_all(&[7], 7);
        check_all(&[7], 8);
    }

    #[test]
    fn duplicates_land_on_first() {
        let a = [1u64, 3, 3, 3, 9, 9, 12];
        for t in 0..14 {
            check_all(&a, t);
        }
        assert_eq!(lower_bound_u64(&a, 3), 1);
        assert_eq!(lower_bound_u64(&a, 9), 4);
    }

    #[test]
    fn sign_bias_boundaries() {
        // Values straddling the i64 sign flip and the u64 extremes — where
        // a signed compare would go wrong first.
        let a = [
            0u64,
            1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &t in &a {
            check_all(&a, t);
            check_all(&a, t.wrapping_add(1));
            check_all(&a, t.wrapping_sub(1));
        }
    }

    #[test]
    fn all_window_sizes() {
        // Cover every tail-window length the kernel can see (0..=40),
        // probing every boundary and both gaps around it.
        for n in 0..40u64 {
            let a: Vec<u64> = (0..n).map(|i| i * 3 + 1).collect();
            for t in 0..(n * 3 + 3) {
                check_all(&a, t);
            }
        }
    }

    #[test]
    fn i64_encoding_is_monotone() {
        let xs = [i64::MIN, -2, -1, 0, 1, 2, i64::MAX];
        for w in xs.windows(2) {
            assert!(w[0].encode() < w[1].encode(), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(0u32.encode(), 0);
        assert!(3u32.encode() < 4u32.encode());
    }
}
