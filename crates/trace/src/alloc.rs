//! Allocation telemetry: a counting global allocator wrapping the system
//! allocator, feeding the `lockbench` benchmark's allocation metrics.
//!
//! The allocator is only *installed* (via `#[global_allocator]`) in the
//! bins that want the numbers — `lockbench` — so library users and the
//! test suite keep the plain system allocator. When installed, every
//! alloc/dealloc updates a handful of relaxed atomics: total allocation
//! count and bytes, live bytes, and a peak-live waterline that scenarios
//! reset between runs ([`reset_peak`]) to get per-phase peaks.
//!
//! ```no_run
//! // In a bin:
//! #[global_allocator]
//! static ALLOC: locksim_trace::alloc::CountingAlloc =
//!     locksim_trace::alloc::CountingAlloc;
//!
//! fn main() {
//!     locksim_trace::alloc::mark_installed();
//!     let before = locksim_trace::alloc::snapshot();
//!     // ... run a scenario ...
//!     let after = locksim_trace::alloc::snapshot();
//!     let delta = after.since(&before);
//!     println!("allocs {} bytes {}", delta.allocs, delta.bytes_allocated);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocation counters, as relaxed atomics. The process has one
/// instance, [`COUNTERS`], which [`CountingAlloc`] feeds.
struct AllocCounters {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes: AtomicU64,
    current: AtomicU64,
    peak: AtomicU64,
}

impl AllocCounters {
    const fn new() -> Self {
        AllocCounters {
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn on_alloc(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        let live = self.current.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(&self, size: usize) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.current.fetch_sub(size as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            bytes_allocated: self.bytes.load(Ordering::Relaxed),
            current_bytes: self.current.load(Ordering::Relaxed),
            peak_bytes: self.peak.load(Ordering::Relaxed),
            installed: INSTALLED.load(Ordering::Relaxed),
        }
    }

    fn reset_peak(&self) {
        self.peak
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

static COUNTERS: AllocCounters = AllocCounters::new();
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// A `#[global_allocator]` shim that counts through to [`System`].
pub struct CountingAlloc;

// SAFETY: defers every allocation to `System`, only adding relaxed
// counter updates around the calls.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            COUNTERS.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            COUNTERS.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        COUNTERS.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            COUNTERS.on_dealloc(layout.size());
            COUNTERS.on_alloc(new_size);
        }
        p
    }
}

/// Declares that [`CountingAlloc`] is this process's global allocator, so
/// reports can distinguish "no churn" from "not measuring". Call once from
/// `main` of any bin that installs the allocator.
pub fn mark_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// A point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocations (and realloc growths) since process start.
    pub allocs: u64,
    /// Deallocations since process start.
    pub frees: u64,
    /// Total bytes ever allocated.
    pub bytes_allocated: u64,
    /// Live heap bytes right now.
    pub current_bytes: u64,
    /// Peak live heap bytes since process start or the last
    /// [`reset_peak`].
    pub peak_bytes: u64,
    /// Whether [`CountingAlloc`] is installed ([`mark_installed`]); all
    /// counters read zero when it is not.
    pub installed: bool,
}

impl AllocSnapshot {
    /// The churn between `earlier` and `self` (monotonic counters only;
    /// `current_bytes`/`peak_bytes` carry `self`'s absolute values).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
            current_bytes: self.current_bytes,
            peak_bytes: self.peak_bytes,
            installed: self.installed,
        }
    }
}

/// Reads the counters.
pub fn snapshot() -> AllocSnapshot {
    COUNTERS.snapshot()
}

/// Restarts the peak-live waterline from the current live size, so the
/// next [`snapshot`] reports the peak of one phase only.
pub fn reset_peak() {
    COUNTERS.reset_peak();
}

thread_local! {
    static RUN_START: std::cell::Cell<Option<AllocSnapshot>> =
        const { std::cell::Cell::new(None) };
    static RUN_DELTA: std::cell::Cell<Option<AllocSnapshot>> =
        const { std::cell::Cell::new(None) };
}

/// Opens this thread's run-phase window: churn between here and
/// [`run_phase_end`] accumulates into the delta returned by
/// [`take_run_phase`]. The simulator's event loop brackets itself with
/// this pair so benchmark callers can attribute allocations to the run
/// loop alone — world construction, baseline parsing and report assembly
/// stay outside the window.
pub fn run_phase_start() {
    RUN_START.with(|c| c.set(Some(snapshot())));
}

/// Closes the window opened by [`run_phase_start`] (no-op when none is
/// open), folding the churn into the pending run-phase delta.
pub fn run_phase_end() {
    let Some(before) = RUN_START.with(|c| c.take()) else {
        return;
    };
    let d = snapshot().since(&before);
    RUN_DELTA.with(|c| {
        let merged = match c.take() {
            // Stepped runs (chaos drives the world in slices) sum their
            // windows; the absolute fields keep the latest reading.
            Some(prev) => AllocSnapshot {
                allocs: prev.allocs + d.allocs,
                frees: prev.frees + d.frees,
                bytes_allocated: prev.bytes_allocated + d.bytes_allocated,
                current_bytes: d.current_bytes,
                peak_bytes: d.peak_bytes,
                installed: d.installed,
            },
            None => d,
        };
        c.set(Some(merged));
    });
}

/// Takes (and clears) the accumulated run-phase delta for this thread.
/// `None` when no window closed since the last take.
pub fn take_run_phase() -> Option<AllocSnapshot> {
    RUN_START.with(|c| c.set(None));
    RUN_DELTA.with(|c| c.take())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed in the test binary, so exercise the
    // counting paths directly, each test on counters of its own.
    #[test]
    fn counting_paths_balance() {
        let c = AllocCounters::new();
        c.on_alloc(100);
        c.on_alloc(50);
        c.on_dealloc(100);
        let after = c.snapshot();
        assert_eq!(after.allocs, 2);
        assert_eq!(after.frees, 1);
        assert_eq!(after.bytes_allocated, 150);
        assert_eq!(after.current_bytes, 50);
    }

    #[test]
    fn peak_tracks_high_water() {
        let c = AllocCounters::new();
        c.on_alloc(4096);
        c.on_alloc(1000);
        c.on_dealloc(4096);
        assert_eq!(c.snapshot().peak_bytes, 5096);
        c.reset_peak();
        assert_eq!(c.snapshot().peak_bytes, 1000);
    }

    #[test]
    fn since_subtracts_monotonic_counters() {
        let a = AllocSnapshot {
            allocs: 10,
            frees: 4,
            bytes_allocated: 1000,
            current_bytes: 600,
            peak_bytes: 800,
            installed: true,
        };
        let b = AllocSnapshot {
            allocs: 25,
            frees: 9,
            bytes_allocated: 2500,
            current_bytes: 900,
            peak_bytes: 1200,
            installed: true,
        };
        let d = b.since(&a);
        assert_eq!(d.allocs, 15);
        assert_eq!(d.frees, 5);
        assert_eq!(d.bytes_allocated, 1500);
        assert_eq!(d.current_bytes, 900, "absolute, not a delta");
        assert_eq!(d.peak_bytes, 1200, "absolute, not a delta");
    }
}
