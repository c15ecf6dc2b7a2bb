//! Pin a scenario — its clients, the server's reactor and workers, all
//! threads of this one process — to a single CPU for as long as a guard
//! lives, the way the repo benchmark (`benchmark/src/affinity.rs`) pins
//! itself for good.
//!
//! On a two-vCPU VM a loopback round trip is bimodal: waking a thread on
//! the other, idle vCPU goes through the hypervisor, so a run is fast
//! when the scheduler happens to keep client and server together and two
//! to three times slower when it spreads them (`repro c10k`, unpinned:
//! reactor/baseline ratios of 0.83–1.23 over seven back-to-back runs).
//! On one CPU every wake-up is a context switch, the work of all threads
//! adds up, and a cheaper server shows as a higher rate.

/// glibc's `cpu_set_t`: 1024 bits.
const WORDS: usize = 16;
type CpuSet = [u64; WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While alive, the thread that made it — and every thread spawned since
/// — runs on one CPU; dropping it gives the thread its CPUs back (spawned
/// threads keep the pin, so join them first).
pub struct Pinned {
    /// The CPU everything is pinned to.
    pub cpu: usize,
    before: CpuSet,
}

/// Restrict this thread, and every thread it spawns from now on, to the
/// first CPU it is allowed on. `None` when the platform has no such call
/// or refuses it (the scenario then runs unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut before = [0u64; WORDS];
    // SAFETY: `before` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&before), before.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let word = before.iter().position(|w| *w != 0)?;
    let bit = before[word].trailing_zeros() as usize;
    let mut only = [0u64; WORDS];
    only[word] = 1 << bit;
    set(&only).then_some(Pinned {
        cpu: word * 64 + bit,
        before,
    })
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<Pinned> {
    None
}

#[cfg(target_os = "linux")]
fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length passed,
    // and the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set(_: &CpuSet) -> bool {
    false
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set(&self.before);
    }
}
