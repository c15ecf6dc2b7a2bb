//! Pin the benchmark — client, reactor and workers are threads of this
//! one process — to a single CPU.
//!
//! On the two-vCPU box the contract runs on, waking a thread on the other,
//! idle vCPU costs a trip through the hypervisor: a loopback round trip
//! takes ~40 µs when client and server threads happen to share a CPU and
//! ~118 µs when the scheduler has spread them, and which of the two a
//! repetition gets is luck. That is the hypervisor's latency, not this
//! repo's, and a bimodal number cannot carry a 10 % bound. On one CPU every
//! wake-up is a context switch, the work of all threads adds up, and a
//! cheaper server shows as a cheaper round trip.

/// Restrict this thread, and every thread it spawns from now on, to the
/// first CPU it is allowed on. Returns that CPU, or `None` when the
/// platform has no such call or refuses it (the run then goes unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: 1024 bits
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let word = allowed.iter().position(|w| *w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut only = [0u64; WORDS];
    only[word] = 1 << bit;
    // SAFETY: `only` is a live buffer of exactly the byte length passed,
    // and the call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    (rc == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
