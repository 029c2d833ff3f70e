//! Simulated physical address space.

use locksim_coherence::LineAddr;
use std::fmt;

/// Words per cache line (64-byte lines, 8-byte words).
pub const WORDS_PER_LINE: u64 = 8;

/// A word-granular (8-byte) physical address.
///
/// The LCU locks *word-level* addresses; the coherence protocol operates on
/// the containing [`LineAddr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this word.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / WORDS_PER_LINE)
    }

    /// Word offset within its line.
    pub fn offset(self) -> u64 {
        self.0 % WORDS_PER_LINE
    }

    /// The `i`-th word after this one.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, i: u64) -> Addr {
        Addr(self.0 + i)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{:#x}", self.0)
    }
}

/// Bump allocator for non-overlapping simulated memory regions.
///
/// # Example
///
/// ```
/// use locksim_machine::{Alloc, WORDS_PER_LINE};
///
/// let mut a = Alloc::new();
/// let x = a.alloc_words(3);
/// let y = a.alloc_words(3);
/// assert!(y.0 >= x.0 + 3);
/// let l = a.alloc_line();
/// assert_eq!(l.offset(), 0, "line allocations are line-aligned");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Alloc {
    next: u64,
}

impl Alloc {
    /// Creates an allocator starting at a non-zero base (so address 0 is
    /// never handed out and can serve as a null sentinel).
    pub fn new() -> Self {
        Alloc {
            next: WORDS_PER_LINE,
        }
    }

    /// Creates an allocator for a disjoint region starting at `base` words.
    /// Used by components that allocate simulated memory outside the
    /// machine's own allocator (e.g. transactional object spaces).
    ///
    /// # Panics
    ///
    /// Panics if `base == 0`.
    pub fn starting_at(base: u64) -> Self {
        assert!(base > 0, "base 0 would hand out the null address");
        Alloc { next: base }
    }

    /// Allocates `n` consecutive words.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn alloc_words(&mut self, n: u64) -> Addr {
        assert!(n > 0);
        let a = Addr(self.next);
        self.next += n;
        a
    }

    /// Allocates one full line, aligned to a line boundary. Use for data
    /// that must not false-share (per-thread queue nodes, counters, ...).
    pub fn alloc_line(&mut self) -> Addr {
        self.next = self.next.next_multiple_of(WORDS_PER_LINE);
        let a = Addr(self.next);
        self.next += WORDS_PER_LINE;
        a
    }
}

/// Maps a line to its home memory controller by interleaving on line
/// address, the usual hardware arrangement.
pub fn home_of(line: LineAddr, n_mems: usize) -> usize {
    (line.0 % n_mems as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_offset() {
        let a = Addr(17);
        assert_eq!(a.line(), LineAddr(2));
        assert_eq!(a.offset(), 1);
    }

    #[test]
    fn words_in_same_line_share_line_addr() {
        let base = Addr(8);
        assert_eq!(base.line(), base.add(7).line());
        assert_ne!(base.line(), base.add(8).line());
    }

    #[test]
    fn alloc_never_returns_zero() {
        let mut a = Alloc::new();
        assert_ne!(a.alloc_words(1).0, 0);
    }

    #[test]
    fn alloc_line_is_aligned_and_disjoint() {
        let mut a = Alloc::new();
        a.alloc_words(3);
        let l1 = a.alloc_line();
        let l2 = a.alloc_line();
        assert_eq!(l1.offset(), 0);
        assert_eq!(l2.offset(), 0);
        assert_ne!(l1.line(), l2.line());
    }

    #[test]
    fn home_interleaves() {
        assert_eq!(home_of(LineAddr(0), 4), 0);
        assert_eq!(home_of(LineAddr(5), 4), 1);
        assert_eq!(home_of(LineAddr(7), 4), 3);
    }

    #[test]
    fn addr_display() {
        assert_eq!(Addr(16).to_string(), "A0x10");
    }
}
