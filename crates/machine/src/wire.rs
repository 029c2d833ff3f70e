//! Backend-owned storage for wire messages and timers in flight.
//!
//! [`crate::Mach::send_wire`] and [`crate::Mach::set_timer`] schedule an
//! event that carries only a `u64` token, and [`crate::LockBackend::on_wire`]
//! and [`crate::LockBackend::on_timer`] receive that token back. The backend
//! keeps the typed message or timer purpose itself, in an [`InFlight`] slab,
//! so the machine never stores a payload and every event stays small.

/// Typed wire messages or timer payloads awaiting delivery, indexed by the
/// token the machine carries. A `Vec<Option<T>>` slab with a free list:
/// `put` and `take` do no hashing, and once the slab has grown to the peak
/// number of messages in flight they allocate nothing.
///
/// The contract that makes slot reuse safe: every wire event and every
/// timer fires exactly once (the machine never cancels an event), and a
/// backend takes a payload only when its event arrives, in `on_wire` or
/// `on_timer`. A slot is therefore free again as soon as its payload is
/// taken, and no stale event can reach a reused slot. A timer whose purpose
/// lapsed still fires; its handler takes the payload and ignores it.
#[derive(Debug, Clone)]
pub struct InFlight<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for InFlight<T> {
    fn default() -> Self {
        InFlight {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> InFlight<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `msg` and returns the token to pass to
    /// [`crate::Mach::send_wire`] or [`crate::Mach::set_timer`].
    pub fn put(&mut self, msg: T) -> u64 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(msg);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slots.len()).expect("more than u32::MAX messages in flight");
                self.slots.push(Some(msg));
                slot
            }
        };
        u64::from(slot)
    }

    /// Removes and returns the message stored under `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not in flight: never issued, or already taken.
    pub fn take(&mut self, token: u64) -> T {
        let slot = u32::try_from(token).expect("token out of slot range");
        let msg = self
            .slots
            .get_mut(slot as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("token {token} is not in flight"));
        self.free.push(slot);
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut wire = InFlight::new();
        let a = wire.put("a");
        let b = wire.put("b");
        assert_ne!(a, b);
        assert_eq!(wire.take(b), "b");
        assert_eq!(wire.take(a), "a");
        assert_eq!(wire.free.len(), 2, "both slots are free again");
    }

    #[test]
    fn freed_slot_is_reused() {
        let mut wire = InFlight::new();
        let a = wire.put(1u32);
        let _b = wire.put(2u32);
        assert_eq!(wire.take(a), 1);
        let c = wire.put(3u32);
        assert_eq!(c, a, "the freed slot is handed out again");
        assert_eq!(wire.take(c), 3);
        assert_eq!(wire.slots.len(), 2, "reuse does not grow the slab");
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn taking_a_token_twice_panics() {
        let mut wire = InFlight::new();
        let a = wire.put(());
        wire.take(a);
        wire.take(a);
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn taking_a_token_never_issued_panics() {
        let mut wire = InFlight::<u8>::new();
        wire.take(7);
    }
}
