//! Software prefetching.
//!
//! The paper's `cluster_matching` kernel issues assembly `prefetch`
//! instructions so cache lines of the column arrays arrive before they are
//! read (§2.2). On x86_64 we use the stable `_mm_prefetch` intrinsic, whose
//! semantics match the paper's non-binding prefetch; on other architectures
//! the call compiles to nothing (documented substitution in DESIGN.md §4 —
//! the *propagation* and *propagation-wp* engines then coincide).

/// Requests the cache line containing `r` to be loaded into all cache
/// levels. Non-binding: the CPU may ignore it; correctness never depends on
/// it.
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch_read<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // SAFETY: `_mm_prefetch` performs no memory access visible to the
        // program; any pointer value is sound to pass.
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            r as *const T as *const i8,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = r;
    }
}

/// Whether this build actually emits prefetch instructions.
pub const PREFETCH_AVAILABLE: bool = cfg!(target_arch = "x86_64");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_no_op_semantically() {
        let data = vec![1u32; 1024];
        prefetch_read(&data[0]);
        prefetch_read(&data[512]);
        assert_eq!(data[0], 1);
    }
}
