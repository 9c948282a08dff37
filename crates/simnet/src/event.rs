//! The simulator's event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::causal::TraceCtx;
use crate::node::TimerId;
use crate::time::{NodeId, Time};

/// A scheduled occurrence.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver `msg` from `from` to the owning node. `sent` is the time the
    /// send was issued (for delivery-latency accounting); `tc` is the causal
    /// trace context riding in the envelope, if any.
    Deliver {
        from: NodeId,
        msg: M,
        sent: Time,
        tc: Option<TraceCtx>,
    },
    /// Fire a timer (if still valid for the node's current epoch).
    TimerFire { id: TimerId, kind: u64, epoch: u32 },
    /// Crash the node.
    Crash,
    /// Restart the node.
    Restart,
    /// Install a partition (group list index into `Sim::partition_plans`).
    Partition { plan: usize },
    /// Remove any partition.
    Heal,
}

/// A popped event: when, for whom, and what.
pub(crate) struct Event<M> {
    pub time: Time,
    /// Insertion order; the simulator never looks, the order tests do.
    #[cfg_attr(not(test), allow(dead_code))]
    pub seq: u64,
    pub node: NodeId,
    pub kind: EventKind<M>,
}

/// What the heap orders: `(time, seq)` — `seq` is unique, so `slot` never
/// decides — plus where the payload sits in the slab. Sifts move these 24
/// bytes instead of a whole `Event<M>` (150–190 bytes with a protocol
/// message inside).
#[derive(Clone, Copy)]
struct Key {
    time: Time,
    seq: u64,
    slot: u32,
}

impl Key {
    /// `(time, seq)` as one integer: one wide compare instead of two
    /// branching ones.
    fn rank(&self) -> u128 {
        (u128::from(self.time.0) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest rank pops first.
        other.rank().cmp(&self.rank())
    }
}

const _: () = assert!(std::mem::size_of::<Key>() <= 24);

/// Deterministic priority queue of events: a min-heap of [`Key`]s over a
/// slab of payloads. Pop order is the total order `(time, seq)`, `seq`
/// being insertion order; freed slab slots are reused, so a steady-state
/// run allocates nothing per event.
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Key>,
    slab: Vec<Option<(NodeId, EventKind<M>)>>,
    /// Vacant slab slots, most recently freed last.
    free: Vec<u32>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    pub fn push(&mut self, time: Time, node: NodeId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some((node, kind));
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 queued events");
                self.slab.push(Some((node, kind)));
                slot
            }
        };
        self.heap.push(Key { time, seq, slot });
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        let Key { time, seq, slot } = self.heap.pop()?;
        let (node, kind) = self.slab[slot as usize]
            .take()
            .expect("every heap key points at an occupied slab slot");
        self.free.push(slot);
        Some(Event {
            time,
            seq,
            node,
            kind,
        })
    }

    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|k| k.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(Time(30), NodeId(0), EventKind::Crash);
        q.push(Time(10), NodeId(1), EventKind::Crash);
        q.push(Time(20), NodeId(2), EventKind::Crash);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(Time(5), NodeId(9), EventKind::Crash);
        q.push(Time(5), NodeId(7), EventKind::Crash);
        q.push(Time(5), NodeId(8), EventKind::Crash);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.node.0).collect();
        assert_eq!(order, vec![9, 7, 8]);
    }

    proptest! {
        /// Pops are globally ordered by (time, insertion sequence) for any
        /// insertion pattern.
        #[test]
        fn prop_pops_sorted(times in proptest::collection::vec(0u64..1_000, 1..100)) {
            let mut q: EventQueue<()> = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time(t), NodeId(i as u32), EventKind::Crash);
            }
            let mut prev: Option<(Time, u64)> = None;
            while let Some(e) = q.pop() {
                if let Some((pt, ps)) = prev {
                    prop_assert!(
                        e.time > pt || (e.time == pt && e.seq > ps),
                        "out of order: {:?},{} after {:?},{}", e.time, e.seq, pt, ps
                    );
                }
                prev = Some((e.time, e.seq));
            }
        }
    }

    /// The queue as it was before keys and slab — a `BinaryHeap` of whole
    /// events under the inverted `(time, seq)` order — kept as the reference
    /// the new one must pop identically to.
    struct ModelEvent {
        time: Time,
        seq: u64,
        node: NodeId,
    }
    impl PartialEq for ModelEvent {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl Eq for ModelEvent {}
    impl PartialOrd for ModelEvent {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for ModelEvent {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    proptest! {
        /// Any interleaving of pushes (few distinct times, so ties abound)
        /// and pops (so slab slots are reused) yields the reference queue's
        /// `(time, seq, node)` sequence and length, and the slab never
        /// outgrows the peak number of queued events.
        #[test]
        fn prop_matches_the_whole_event_heap(
            ops in proptest::collection::vec((0u8..3, 0u64..6), 1..400)
        ) {
            let mut q: EventQueue<()> = EventQueue::new();
            let mut model: BinaryHeap<ModelEvent> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut peak = 0usize;
            // Then pop until both are empty.
            let drain = std::iter::repeat_n((2u8, 0u64), ops.len());
            for (i, (op, time)) in ops.into_iter().chain(drain).enumerate() {
                if op < 2 {
                    let (time, node) = (Time(time), NodeId(i as u32));
                    q.push(time, node, EventKind::Crash);
                    model.push(ModelEvent { time, seq: next_seq, node });
                    next_seq += 1;
                } else {
                    let got = q.pop().map(|e| (e.time, e.seq, e.node));
                    let want = model.pop().map(|e| (e.time, e.seq, e.node));
                    prop_assert_eq!(got, want);
                }
                peak = peak.max(model.len());
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.peek_time(), model.peek().map(|e| e.time));
                prop_assert!(q.slab.len() <= peak, "slab {} > peak {}", q.slab.len(), peak);
                prop_assert_eq!(q.free.len() + q.len(), q.slab.len());
            }
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time(42), NodeId(0), EventKind::Heal);
        assert_eq!(q.peek_time(), Some(Time(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
