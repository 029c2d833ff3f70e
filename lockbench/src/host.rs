//! Host measurements: process CPU time, a host-speed probe, and sending
//! standard output to a file while the harness emitters print.

use std::ffi::c_int;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, Write};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::time::Instant;

/// What one [`probe`] takes on the reference host, in ms. A host time
/// multiplied by `PROBE_REF_MS` over the measured probe time reads in
/// reference-host time. The value only sets the unit: spreads and
/// compare ratios are the same for any value.
pub const PROBE_REF_MS: f64 = 0.43;

/// Runs the host-speed probe once and returns its host time in ms.
///
/// Shared hosts change speed by tens of percent over minutes as neighbours
/// come and go, and the simulator slows with them. The probe is a small
/// fixed discrete-event kernel in the simulator's style, a timestamp heap
/// feeding a table of counters (80 KB, on the stack, so it allocates
/// nothing), that shares no code with the simulator: its time moves with
/// the host's speed and not with the change under test.
pub fn probe() -> f64 {
    let t = Instant::now();
    black_box(probe_kernel(black_box(PROBE_STEPS)));
    t.elapsed().as_secs_f64() * 1e3
}

const PROBE_STEPS: u32 = 4_000;

fn probe_kernel(steps: u32) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = [(0u64, 0u64); 4096];
    for (id, slot) in heap.iter_mut().enumerate() {
        *slot = (next() % 10_000, id as u64);
    }
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, i);
    }
    let mut counters = [0u64; 2048];
    let mut acc = 0;
    for _ in 0..steps {
        // Dispatch the earliest event and schedule its successor.
        let (t, id) = heap[0];
        counters[((id * 31 + t) & 2047) as usize] += t & 7;
        heap[0] = (t + 1 + next() % 1000, id);
        sift_down(&mut heap, 0);
        acc ^= t;
    }
    acc ^ counters.iter().sum::<u64>()
}

fn sift_down(heap: &mut [(u64, u64)], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let child = if right < heap.len() && heap[right] < heap[left] {
            right
        } else {
            left
        };
        if heap[child] >= heap[i] {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

/// Clock ticks per second of the `/proc` time fields (Linux `USER_HZ`,
/// 100 on every architecture Rust supports).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, every thread included,
/// from `/proc/self/stat`. Resolution is one clock tick (10 ms).
///
/// # Panics
///
/// Panics if `/proc/self/stat` is missing or malformed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_seconds(&stat).expect("parse /proc/self/stat")
}

/// Parses utime + stime (fields 14 and 15) from a `/proc/<pid>/stat` line.
/// The command name in field 2 may hold spaces, so fields are counted from
/// its closing parenthesis.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

extern "C" {
    fn dup(fd: c_int) -> c_int;
    fn dup2(old: c_int, new: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

const STDOUT: c_int = 1;

/// Points file descriptor 1 at a file until dropped. The harness emitters
/// print every verdict and metrics table they write; this keeps that out
/// of the benchmark's own standard output, whose last line is its result.
pub struct StdoutToFile {
    saved: c_int,
}

impl StdoutToFile {
    /// Creates (truncates) `path` and sends standard output there.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the file, flushing, or duplicating
    /// a descriptor.
    pub fn new(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        io::stdout().flush()?;
        // SAFETY: `dup` takes and returns plain descriptors and touches no
        // memory; a negative result is reported as an error below.
        let saved = unsafe { dup(STDOUT) };
        if saved < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `file` is open for the duration of the call and fd 1 is a
        // valid target; `dup2` touches no memory.
        if unsafe { dup2(file.as_raw_fd(), STDOUT) } < 0 {
            let err = io::Error::last_os_error();
            // SAFETY: `saved` is the descriptor `dup` returned above, owned
            // here and closed once.
            unsafe { close(saved) };
            return Err(err);
        }
        Ok(StdoutToFile { saved })
    }
}

impl Drop for StdoutToFile {
    fn drop(&mut self) {
        let _ = io::stdout().flush();
        // SAFETY: `saved` is the open duplicate of the original fd 1 taken
        // in `new`; restoring it and closing the duplicate touch no memory,
        // and `saved` is not used again.
        unsafe {
            dup2(self.saved, STDOUT);
            close(self.saved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_times_after_a_command_with_spaces() {
        let stat = "4242 (lock bench) R 1 2 3 4 5 6 7 8 9 10 250 37 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Some(2.87));
    }

    #[test]
    fn rejects_a_truncated_line() {
        assert_eq!(parse_cpu_seconds("4242 (x) R 1 2"), None);
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn reads_this_process() {
        let t = cpu_seconds();
        assert!(t >= 0.0);
    }

    #[test]
    fn probe_kernel_is_deterministic() {
        assert_eq!(probe_kernel(3_000), probe_kernel(3_000));
        assert_ne!(probe_kernel(3_000), probe_kernel(2_999));
        let mut heap = [(5, 0), (3, 1), (9, 2), (1, 3), (7, 4)];
        for i in (0..2).rev() {
            sift_down(&mut heap, i);
        }
        assert_eq!(heap[0], (1, 3), "heapified to the minimum");
        assert!(probe() > 0.0);
    }
}
