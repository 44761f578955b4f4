//! The clock every end-to-end timing reads.

/// On-CPU seconds of the calling thread so far: the scheduler's task
/// clock, read from `/proc/thread-self/schedstat`.
///
/// On a virtual machine whose kernel accounts paravirtual steal time, the
/// task clock stops while the hypervisor runs other guests; on a shared
/// 2-vCPU virtual machine such bursts doubled wall times for minutes at a
/// stretch. It also stops while the thread waits for a CPU
/// behind other processes. Every workload body runs on one thread
/// (`MOE_THREADS=1`), so the difference between two readings is the
/// body's wall time on an uncontended core. Work moved onto other threads
/// would not be counted.
///
/// The kernel folds the running slice into the file's value only at ticks
/// and context switches, so a yield comes first: it brings the value up
/// to date to the nanosecond instead of the last 4 ms tick.
pub fn cpu_now() -> f64 {
    std::thread::yield_now();
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("moe_perf needs Linux's /proc/thread-self/schedstat");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .expect("schedstat starts with the task's run time in ns");
    ns as f64 * 1e-9
}
