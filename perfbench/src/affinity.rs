//! Moving the calling thread between CPUs. The scheduler keeps a
//! single-threaded run on one CPU for seconds at a time, and on a shared
//! host the CPUs slow down at different times, so such a run samples one
//! CPU's state; rotating its segments over every CPU the process may use
//! averages them.

use std::os::raw::{c_int, c_ulong};

/// Mask words: room for 1 024 CPUs.
const WORDS: usize = 16;
const BITS: usize = c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

/// The CPUs the calling thread may run on, ascending; empty when the
/// kernel does not say.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0 as c_ulong; WORDS];
    // SAFETY: `mask` is writable and exactly `size_of_val(&mask)` bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * BITS)
        .filter(|&cpu| mask[cpu / BITS] >> (cpu % BITS) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpus`; false when the kernel refuses.
pub fn set(cpus: &[usize]) -> bool {
    let mut mask = [0 as c_ulong; WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < WORDS * BITS) {
        mask[cpu / BITS] |= 1 << (cpu % BITS);
    }
    // SAFETY: `mask` is readable and exactly `size_of_val(&mask)` bytes.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_each_allowed_cpu_and_restores() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        for &cpu in &cpus {
            assert!(set(&[cpu]));
            assert_eq!(allowed(), vec![cpu]);
        }
        assert!(set(&cpus));
        assert_eq!(allowed(), cpus);
    }
}
