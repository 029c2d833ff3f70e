//! Backend state kept per thread, indexed by [`ThreadId`].

use std::ops::Index;

use crate::prog::ThreadId;

/// At most one `T` per thread: a `Vec<Option<T>>` indexed by the thread's
/// id. Thread ids are dense (the machine numbers threads in spawn order),
/// so a lookup is a bounds check and no hashing, and the vector grows only
/// to the highest thread id ever inserted. Iteration runs in thread order.
///
/// The API mirrors the map it replaces: `insert`, `get`, `get_mut`,
/// `remove`, `contains_key`, and indexing, which panics when the thread
/// has no entry.
#[derive(Debug, Clone)]
pub struct PerThread<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for PerThread<T> {
    fn default() -> Self {
        PerThread { slots: Vec::new() }
    }
}

impl<T> PerThread<T> {
    /// No entries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` for `t` and returns the entry it replaced, if any.
    pub fn insert(&mut self, t: ThreadId, value: T) -> Option<T> {
        let i = t.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].replace(value)
    }

    /// `t`'s entry.
    pub fn get(&self, t: ThreadId) -> Option<&T> {
        self.slots.get(t.0 as usize).and_then(Option::as_ref)
    }

    /// `t`'s entry, mutably.
    pub fn get_mut(&mut self, t: ThreadId) -> Option<&mut T> {
        self.slots.get_mut(t.0 as usize).and_then(Option::as_mut)
    }

    /// Removes and returns `t`'s entry.
    pub fn remove(&mut self, t: ThreadId) -> Option<T> {
        self.slots.get_mut(t.0 as usize).and_then(Option::take)
    }

    /// Whether `t` has an entry.
    pub fn contains_key(&self, t: ThreadId) -> bool {
        self.get(t).is_some()
    }

    /// Every entry with its thread, in thread order.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (ThreadId(i as u32), v)))
    }
}

impl<T> Index<ThreadId> for PerThread<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if `t` has no entry.
    fn index(&self, t: ThreadId) -> &T {
        self.get(t).unwrap_or_else(|| panic!("{t:?} has no entry"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut per = PerThread::new();
        assert_eq!(per.insert(ThreadId(3), "c"), None);
        assert_eq!(per.insert(ThreadId(3), "C"), Some("c"), "insert replaces");
        assert_eq!(per.get(ThreadId(3)), Some(&"C"));
        assert_eq!(per.get(ThreadId(1)), None, "a lower id has no entry");
        assert_eq!(per.get(ThreadId(9)), None, "past the end has no entry");
        *per.get_mut(ThreadId(3)).unwrap() = "d";
        assert_eq!(per[ThreadId(3)], "d");
        assert!(per.get_mut(ThreadId(0)).is_none());
        assert!(per.contains_key(ThreadId(3)));
        assert!(!per.contains_key(ThreadId(2)));
        assert_eq!(per.remove(ThreadId(3)), Some("d"));
        assert_eq!(per.remove(ThreadId(3)), None, "removed once");
        assert_eq!(per.remove(ThreadId(40)), None);
        assert!(!per.contains_key(ThreadId(3)));
    }

    #[test]
    fn iterates_in_thread_order() {
        let mut per = PerThread::new();
        for t in [5, 0, 2, 7] {
            per.insert(ThreadId(t), t * 10);
        }
        per.remove(ThreadId(2));
        let seen: Vec<(ThreadId, u32)> = per.iter().map(|(t, &v)| (t, v)).collect();
        assert_eq!(
            seen,
            [(ThreadId(0), 0), (ThreadId(5), 50), (ThreadId(7), 70)]
        );
    }

    #[test]
    #[should_panic(expected = "has no entry")]
    fn indexing_a_thread_without_an_entry_panics() {
        let mut per = PerThread::new();
        per.insert(ThreadId(4), 'd');
        let _ = per[ThreadId(1)];
    }

    #[test]
    #[should_panic(expected = "has no entry")]
    fn indexing_past_the_end_panics() {
        let per = PerThread::<u8>::new();
        let _ = per[ThreadId(0)];
    }
}
