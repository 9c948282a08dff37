//! The simulator's event queue.
//!
//! Protocols under partial synchrony live on timeouts, so most of what is
//! queued at any moment is a timer tens of milliseconds away, while what
//! runs next is a message a few hundred microseconds away. The queue
//! therefore orders only what is due. Simulated time is cut into windows of
//! `1 << WINDOW_BITS` µs and a [`Key`] waits in exactly one of three places:
//!
//! 1. `heap` — every key of the current window `cur` or of an earlier one.
//!    The only place keys are compared with each other.
//! 2. `ring[w % RING]` — the keys of window `w`, `cur < w < cur + RING`, in
//!    arrival order. Pushing one is an append.
//! 3. `beyond` — a second, small heap for keys `RING` or more windows ahead.
//!
//! Invariant: **every key in `ring` / `beyond` is later than every key in
//! `heap`** — its window is `> cur`, theirs `<= cur` — so the heap's top is
//! the queue's top whenever the heap is not empty. When it runs dry, `cur`
//! moves to the next window that holds a key and that window's keys move
//! into the heap ([`EventQueue::advance`]). Pop order is exactly
//! `(time, seq)` for every push pattern, a time before the last pop included.

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

/// Windows are `1 << WINDOW_BITS` µs wide: wide enough that a LAN hop lands
/// in the current or the next one, narrow enough that a 100 ms timer does not.
const WINDOW_BITS: u32 = 10;
/// Windows the ring reaches ahead of `cur` (262 ms): past every retry and
/// most election timers, so `beyond` stays small.
const RING: u64 = 256;
/// Set in [`Key::slot`] when the payload sits in the timer slab.
const TIMER: u32 = 1 << 31;

/// What the queue orders: `(time, seq)` — `seq` is unique, so `slot` never
/// decides — plus where the payload sits. Sifts move these 24 bytes instead
/// of a whole `Event<M>` (150–190 bytes with a protocol message inside).
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

    fn window(&self) -> u64 {
        self.time.0 >> WINDOW_BITS
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

/// Payloads waiting for their keys to pop. Freed slots are reused, the most
/// recently freed first, so a steady-state run allocates nothing per event.
struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, item: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.items[slot as usize] = Some(item);
            return slot;
        }
        let slot = u32::try_from(self.items.len())
            .ok()
            .filter(|slot| slot & TIMER == 0)
            .expect("fewer than 2^31 queued events of a kind");
        self.items.push(Some(item));
        slot
    }

    fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.items[slot as usize]
            .take()
            .expect("every key points at an occupied slot")
    }

    fn live(&self) -> usize {
        self.items.len() - self.free.len()
    }
}

/// Deterministic priority queue of events: [`Key`]s in the current window's
/// heap, the ring of later windows or `beyond` (module docs), payloads in two
/// slabs. Pop order is the total order `(time, seq)`, `seq` being insertion
/// order.
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Key>,
    /// The window `heap` is ordering; never moves backwards.
    cur: u64,
    ring: Vec<Vec<Key>>,
    beyond: BinaryHeap<Key>,
    /// Everything but timers: mostly messages in flight.
    slab: Slab<(NodeId, EventKind<M>)>,
    /// `TimerFire` payloads, which outnumber and outlive the messages;
    /// their keys carry the [`TIMER`] bit.
    timers: Slab<(NodeId, TimerId, u64, u32)>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cur: 0,
            ring: vec![Vec::new(); RING as usize],
            beyond: BinaryHeap::new(),
            slab: Slab::new(),
            timers: Slab::new(),
            next_seq: 0,
        }
    }

    pub fn push(&mut self, time: Time, node: NodeId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match kind {
            EventKind::TimerFire { id, kind, epoch } => {
                self.timers.insert((node, id, kind, epoch)) | TIMER
            }
            kind => self.slab.insert((node, kind)),
        };
        let key = Key { time, seq, slot };
        let window = key.window();
        if window <= self.cur {
            self.heap.push(key);
        } else if window - self.cur < RING {
            self.ring[(window % RING) as usize].push(key);
        } else {
            self.beyond.push(key);
        }
    }

    /// With the heap empty, moves `cur` to the earliest window that holds a
    /// key — the nearer of the ring's next occupied slot and `beyond`'s top
    /// — and that window's keys into the heap.
    fn advance(&mut self) {
        let in_ring =
            (self.cur + 1..self.cur + RING).find(|w| !self.ring[(w % RING) as usize].is_empty());
        let far = self.beyond.peek().map(Key::window);
        let Some(next) = in_ring.into_iter().chain(far).min() else {
            return;
        };
        self.cur = next;
        // An occupied slot holds one window's keys, and a `next` past the
        // ring's reach means the whole ring is empty.
        self.heap
            .extend(self.ring[(next % RING) as usize].drain(..));
        while self.beyond.peek().is_some_and(|k| k.window() == next) {
            self.heap.extend(self.beyond.pop());
        }
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        if self.heap.is_empty() {
            self.advance();
        }
        let Key { time, seq, slot } = self.heap.pop()?;
        let (node, kind) = if slot & TIMER != 0 {
            let (node, id, kind, epoch) = self.timers.take(slot ^ TIMER);
            (node, EventKind::TimerFire { id, kind, epoch })
        } else {
            self.slab.take(slot)
        };
        Some(Event {
            time,
            seq,
            node,
            kind,
        })
    }

    /// `&mut` because looking past an empty heap advances `cur`.
    pub fn peek_time(&mut self) -> Option<Time> {
        if self.heap.is_empty() {
            self.advance();
        }
        self.heap.peek().map(|k| k.time)
    }

    pub fn len(&self) -> usize {
        self.slab.live() + self.timers.live()
    }

    /// Queued timer events, cancelled ones included until their time passes.
    pub fn pending_timers(&self) -> usize {
        self.timers.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const WINDOW: u64 = 1 << WINDOW_BITS;

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

    /// Pops everything; `(time, node)` per event.
    fn pop_all(q: &mut EventQueue<()>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.0, e.node.0))
            .collect()
    }

    #[test]
    fn ties_straddling_a_window_boundary_keep_insertion_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        // The last µs of window 2 and the first of window 3, interleaved,
        // pushed while `cur` is still 0 so both go through the ring.
        let (last, first) = (3 * WINDOW - 1, 3 * WINDOW);
        for (node, time) in [first, last, first, last, last, first]
            .into_iter()
            .enumerate()
        {
            q.push(Time(time), NodeId(node as u32), EventKind::Crash);
        }
        assert_eq!(
            pop_all(&mut q),
            vec![
                (last, 1),
                (last, 3),
                (last, 4),
                (first, 0),
                (first, 2),
                (first, 5)
            ]
        );
    }

    #[test]
    fn a_window_whose_ring_slot_was_just_drained_takes_pushes() {
        let mut q: EventQueue<()> = EventQueue::new();
        let w4 = 4 * WINDOW;
        q.push(Time(w4 + 500), NodeId(0), EventKind::Crash);
        // Looking drains ring slot 4 into the heap and moves `cur` to 4.
        assert_eq!(q.peek_time(), Some(Time(w4 + 500)));
        assert_eq!((q.cur, q.ring[4].len(), q.heap.len()), (4, 0, 1));
        // The same window again, earlier and later than the key moved in …
        q.push(Time(w4 + 100), NodeId(1), EventKind::Heal);
        q.push(Time(w4 + 900), NodeId(2), EventKind::Heal);
        // … and the window that shares its ring slot, one lap ahead.
        q.push(Time(w4 + RING * WINDOW), NodeId(3), EventKind::Heal);
        assert_eq!((q.ring[4].len(), q.beyond.len()), (0, 1));
        assert_eq!(q.peek_time(), Some(Time(w4 + 100)));
        assert_eq!(
            pop_all(&mut q),
            vec![
                (w4 + 100, 1),
                (w4 + 500, 0),
                (w4 + 900, 2),
                (w4 + RING * WINDOW, 3)
            ]
        );
    }

    #[test]
    fn a_beyond_key_overtaken_by_the_ring_pops_in_order_with_its_window() {
        let mut q: EventQueue<()> = EventQueue::new();
        let far = (RING + 10) * WINDOW;
        q.push(Time(far + 7), NodeId(0), EventKind::Crash);
        q.push(
            Time(far + 3),
            NodeId(1),
            EventKind::TimerFire {
                id: TimerId(1),
                kind: 0,
                epoch: 0,
            },
        );
        assert_eq!(q.beyond.len(), 2);
        // `cur` moves to window 20: window RING + 10 is now in ring range,
        // the two keys above stay where they were put.
        q.push(Time(20 * WINDOW), NodeId(2), EventKind::Crash);
        assert_eq!(q.pop().map(|e| e.node), Some(NodeId(2)));
        q.push(Time(far + 5), NodeId(3), EventKind::Crash);
        q.push(Time(far + 3), NodeId(4), EventKind::Crash);
        q.push(Time(far + WINDOW), NodeId(5), EventKind::Crash);
        assert_eq!((q.cur, q.beyond.len()), (20, 2));
        assert_eq!(q.ring[((RING + 10) % RING) as usize].len(), 2);
        assert_eq!(
            pop_all(&mut q),
            vec![
                (far + 3, 1),
                (far + 3, 4),
                (far + 5, 3),
                (far + 7, 0),
                (far + WINDOW, 5)
            ]
        );
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

    /// The queue as it was before windows, keys and slabs — one `BinaryHeap`
    /// of whole events under the inverted `(time, seq)` order — kept as the
    /// reference the new one must pop identically to.
    struct ModelEvent {
        time: Time,
        seq: u64,
        node: NodeId,
        timer: bool,
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

    /// Where a pushed event's time lies relative to the last popped one.
    fn time_for(region: u8, offset: u64, last: u64) -> u64 {
        match region {
            // Few distinct times around a window boundary: ties abound.
            0 => last / WINDOW * WINDOW + WINDOW - 2 + offset % 4,
            // Within four windows of the last pop.
            1 => last + offset % (4 * WINDOW),
            // Anywhere in the ring's reach, and a little past it.
            2 => last + offset * WINDOW / 13,
            // Beyond the horizon, some of it in windows that share a slot.
            3 => last + (RING + offset % 8 * RING / 4) * WINDOW + offset % 3,
            // Before the last popped time.
            _ => last.saturating_sub(offset),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of pushes — times near the last pop, across the
        /// ring, past its horizon and before the last pop; timers and other
        /// kinds mixed; queues kept long or nearly empty by `push_share` —
        /// with pops and peeks yields the reference queue's `(time, seq,
        /// node)` sequence, length and next time; each payload comes back
        /// from the slab of its kind, and neither slab outgrows the peak
        /// number of events of its kind queued at once.
        #[test]
        fn prop_matches_the_whole_event_heap(
            ops in proptest::collection::vec((0u8..8, 0u8..2, 0u8..5, 0u64..4_000), 1..400),
            push_share in 2u8..7,
            peek_every_step in 0u8..2,
        ) {
            let mut q: EventQueue<()> = EventQueue::new();
            let mut model: BinaryHeap<ModelEvent> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut last = 0u64;
            // Live and peak counts: [other kinds, timers].
            let (mut live, mut peak) = ([0usize; 2], [0usize; 2]);
            // Then pop until both are empty.
            let drain = std::iter::repeat_n((push_share, 0, 0, 0), ops.len());
            for (i, (op, timer, region, offset)) in ops.into_iter().chain(drain).enumerate() {
                if op < push_share {
                    let time = Time(time_for(region, offset, last));
                    let (node, timer) = (NodeId(i as u32), timer == 1);
                    let kind = if timer {
                        EventKind::TimerFire { id: TimerId(next_seq), kind: offset, epoch: i as u32 }
                    } else {
                        EventKind::Crash
                    };
                    q.push(time, node, kind);
                    model.push(ModelEvent { time, seq: next_seq, node, timer });
                    next_seq += 1;
                    let t = usize::from(timer);
                    live[t] += 1;
                    peak[t] = peak[t].max(live[t]);
                } else if op < 7 {
                    let (got, want) = (q.pop(), model.pop());
                    prop_assert_eq!(
                        got.as_ref().map(|e| (e.time, e.seq, e.node)),
                        want.as_ref().map(|e| (e.time, e.seq, e.node))
                    );
                    if let (Some(got), Some(want)) = (got, want) {
                        last = got.time.0;
                        live[usize::from(want.timer)] -= 1;
                        match got.kind {
                            EventKind::TimerFire { id, .. } => {
                                prop_assert!(want.timer);
                                prop_assert_eq!(id, TimerId(got.seq));
                            }
                            _ => prop_assert!(!want.timer),
                        }
                    }
                }
                if op == 7 || peek_every_step == 1 {
                    prop_assert_eq!(q.peek_time(), model.peek().map(|e| e.time));
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.pending_timers(), live[1]);
                let keys = q.heap.len() + q.beyond.len() + q.ring.iter().map(Vec::len).sum::<usize>();
                prop_assert_eq!(keys, model.len());
                for (slab_len, free, kind) in [
                    (q.slab.items.len(), q.slab.free.len(), 0),
                    (q.timers.items.len(), q.timers.free.len(), 1),
                ] {
                    prop_assert_eq!(free + live[kind], slab_len);
                    prop_assert!(slab_len <= peak[kind], "slab {} > peak {}", slab_len, peak[kind]);
                }
            }
            prop_assert_eq!(q.len(), 0);
            prop_assert_eq!(q.peek_time(), None);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(Time(42), NodeId(0), EventKind::Heal);
        assert_eq!(q.peek_time(), Some(Time(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
