//! What the kernel says about this process (peak resident set, core count)
//! and the one thing the benchmark asks of it (run on a single core). Read
//! from `/proc` and called through libc, so Linux only.

/// `VmHWM`: the largest resident set this process has had, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM");
    kib / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Words of the CPU mask handed to the kernel: 1 024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    /// `sched_setaffinity(2)` from the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_affinity(mask: [u64; MASK_WORDS]) -> Result<(), String> {
    // SAFETY: `mask` is a live array of `MASK_WORDS` u64 and the size passed
    // is its size in bytes; the kernel only reads it. Pid 0 names the
    // calling thread, so no other process is touched.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Restrict the calling thread, and every thread spawned from it from now
/// on, to CPU 0.
pub fn pin_to_one_core() -> Result<(), String> {
    let mut mask = [0; MASK_WORDS];
    mask[0] = 1;
    set_affinity(mask)
}

/// Let the calling thread, and the threads it spawns from now on, run on
/// every CPU again. Threads spawned while pinned stay pinned.
pub fn unpin() -> Result<(), String> {
    set_affinity([u64::MAX; MASK_WORDS])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
    }

    #[test]
    fn pinning_is_inherited_and_reversible() {
        let cpus_of = || -> usize {
            std::fs::read_to_string("/proc/thread-self/status")
                .unwrap()
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
                .map(|list| if list.contains(['-', ',']) { 2 } else { 1 })
                .unwrap()
        };
        // The test harness runs tests on threads of their own, so pinning
        // this one leaves the others alone.
        std::thread::spawn(move || {
            pin_to_one_core().unwrap();
            assert_eq!(cpus_of(), 1);
            assert_eq!(std::thread::spawn(cpus_of).join().unwrap(), 1);
            unpin().unwrap();
            assert_eq!(cpus_of().min(nproc()), nproc().min(2));
        })
        .join()
        .unwrap();
    }
}
