//! Values parked under `u32` slots: the simulator's pending records —
//! messages in flight, armed timers, scheduled faults — each from the
//! moment it is made until its event pops.

/// Freed slots are reused, the most recently freed first, so a steady-state
/// run allocates nothing per value.
pub(crate) struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks `item`; the slot is below `2^30`, so an event-queue key can
    /// name the slab in its top two bits.
    pub fn insert(&mut self, item: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.items[slot as usize] = Some(item);
            return slot;
        }
        let slot = u32::try_from(self.items.len())
            .ok()
            .filter(|slot| slot >> 30 == 0)
            .expect("fewer than 2^30 parked values of a kind");
        self.items.push(Some(item));
        slot
    }

    pub fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.items[slot as usize]
            .take()
            .expect("every slot handed out is occupied until taken")
    }

    pub fn get(&self, slot: u32) -> &T {
        self.items[slot as usize]
            .as_ref()
            .expect("every slot handed out is occupied until taken")
    }

    /// The value in `slot`, or `None` once it was taken.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.items.get_mut(slot as usize)?.as_mut()
    }

    /// Values parked and not yet taken.
    pub fn live(&self) -> usize {
        self.items.len() - self.free.len()
    }

    /// Slots ever handed out: the peak of [`Slab::live`].
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.items.len()
    }
}
