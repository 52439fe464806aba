//! Run a workload on one CPU.
//!
//! A served request is a relay between threads that each sleep until the
//! previous one hands over (client -> session thread -> pool worker -> and
//! back, per chunk), and a `remote-cold` session sleeps through every GET.
//! On a shared, virtualised host, what such a hand-over or wake-up costs
//! depends on which core the guest scheduler picks and on whether the
//! hypervisor has that vCPU running at that moment — the host's state, not
//! the program's. Measured on the 2-vCPU VM this was written on (same seed,
//! six runs): `shard-warm` class medians spread 5-20 % with the threads free
//! to roam and 1-3 % with every thread on one CPU; `remote-cold`
//! `session_p50_s` 8 % against 1.5 %. On one CPU a hand-over is a context
//! switch, which costs the same every time, and the latency is the sum of
//! the work the request causes.
//!
//! What this gives up: work that two of those threads could have done at
//! the same moment is counted twice as long. Parallel speed-ups are read on
//! `write-commit` and `local-v2`, which keep every core.

/// Restrict the calling thread, and so every thread it spawns from now on,
/// to the highest-numbered CPU it is allowed on (the lowest one usually
/// takes the interrupts). Returns that CPU, or `None` where the affinity
/// calls are missing or refuse: the run then goes on unpinned.
pub fn to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // glibc's wrappers; std links the C library already.
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        const WORDS: usize = 16; // 1024 CPUs, the size of glibc's cpu_set_t
        let mut allowed = [0u64; WORDS];
        // SAFETY: both calls get a pointer to WORDS * 8 valid bytes and that length.
        if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above.
        (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}
