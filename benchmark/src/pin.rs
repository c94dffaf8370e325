//! Pins the process to one CPU before any thread exists.
//!
//! Unpinned on a 2-vCPU host a one-connection write+take loop flips between
//! a 20 µs and a 93 µs median from run to run, depending on which vCPU the
//! peer thread wakes on; pinned, the same loop repeats within 2 %. On one
//! CPU throughput is 1 / (CPU time of all layers + off-CPU waits), which is
//! what lets the layer table sum back to the end-to-end number.

/// `cpu_set_t` on Linux: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The lowest-numbered CPU this process may run on.
pub fn first_allowed_cpu() -> Result<usize, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable 128-byte buffer and the size passed
    // is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    set.iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or_else(|| "the allowed CPU set is empty".into())
}

/// Restricts the calling process to the first CPU of its allowed set and
/// returns that CPU's number. Must run before the first thread is spawned:
/// threads inherit the mask of their creator.
pub fn pin_to_first_allowed_cpu() -> Result<usize, String> {
    let cpu = first_allowed_cpu()?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live 128-byte buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
