//! The simulator's event queue.
//!
//! Protocols under partial synchrony live on timeouts, so most of what is
//! queued at any moment is a timer tens of milliseconds away, while what
//! runs next is a message a few hundred microseconds away. The queue
//! therefore orders only what is due. Simulated time is cut into windows of
//! `1 << WINDOW_BITS` µs and a key waits in exactly one of four places:
//!
//! 1. `early` — a small heap of keys from windows before the current one
//!    `cur` (pushed for a time the queue has already looked past). The only
//!    place besides `beyond` where keys are compared with each other.
//! 2. `lists` — the keys of window `cur`, one FIFO per µs. The FIFOs are
//!    intrusive, threaded through one pool of [`Link`]s, and an occupancy
//!    bitmap finds the next µs that holds one.
//! 3. `ring[w % RING]` — the keys of window `w`, `cur < w < cur + RING`, in
//!    arrival order. Pushing one is an append.
//! 4. `beyond` — a second, small heap for keys `RING` or more windows ahead.
//!
//! Invariant: **every key in `early` is earlier than every key in `lists`,
//! and those earlier than every key in `ring` / `beyond`** — by window — and
//! **each µs FIFO holds its keys in `seq` order**. A key pushed straight to
//! `lists` is the newest key, so appending keeps the order; when the window
//! is drained into it ([`EventQueue::advance`]), its `beyond` keys (pushed
//! while the window was out of the ring's reach, so before any of its ring
//! keys) go in first, in heap order, then its ring keys in arrival order.
//! Pop order is therefore exactly `(time, seq)` for every push pattern, a
//! time before the last pop included.
//!
//! Nothing that happens is in here, only when: a key's `slot` is opaque to
//! the queue. The simulator keeps every pending message, timer and fault
//! as one record in a slab of its own, and a key's slot names the record
//! (the simulator tags it with the slab), so a push or pop moves 16 or 24
//! bytes whatever the protocol's message type.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Windows are `1 << WINDOW_BITS` µs wide: wide enough that a LAN hop lands
/// in the current or the next one, narrow enough that a 100 ms timer does not.
const WINDOW_BITS: u32 = 10;
/// µs per window, and so FIFOs in `lists`.
const SPAN: usize = 1 << WINDOW_BITS;
/// Windows the ring reaches ahead of `cur` (262 ms): past every retry and
/// most election timers, so `beyond` stays small.
const RING: u64 = 256;
/// The end of a FIFO or of the pool's free list.
const NIL: u32 = u32::MAX;

/// What the queue orders: `(time, seq)` — `seq` is the insertion counter,
/// so it is unique and `slot` never decides — plus the caller's slot.
#[derive(Clone, Copy)]
pub(crate) struct Key {
    pub time: Time,
    /// Insertion order; the simulator never looks, the order tests do.
    pub seq: u64,
    pub slot: u32,
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

/// A key of the current window, on the FIFO of its µs: the list gives the
/// time, so only `seq` and the slot are kept, and `next` threads the FIFO
/// (or the pool's free list).
#[derive(Clone, Copy)]
struct Link {
    seq: u64,
    slot: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Link>() == 16);

/// One µs FIFO of the current window: first and last link, `head == NIL`
/// when empty (`tail` is then stale).
#[derive(Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

/// Deterministic priority queue of keys, each in `early`, the current
/// window's µs FIFOs, the ring of later windows or `beyond` (module docs).
/// Pop order is the total order `(time, seq)`, `seq` being insertion order.
pub(crate) struct EventQueue {
    early: BinaryHeap<Key>,
    /// The window `lists` holds; never moves backwards.
    cur: u64,
    lists: Box<[Fifo; SPAN]>,
    /// Bit `us` set ⇔ `lists[us]` is non-empty.
    occupied: [u64; SPAN / 64],
    /// No word of `occupied` below this one has a bit set.
    low_word: usize,
    /// The links of every FIFO, and freed ones chained from `free_link`.
    links: Vec<Link>,
    free_link: u32,
    ring: Vec<Vec<Key>>,
    beyond: BinaryHeap<Key>,
    /// Keys pushed and not yet popped.
    len: usize,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            early: BinaryHeap::new(),
            cur: 0,
            lists: Box::new(
                [Fifo {
                    head: NIL,
                    tail: NIL,
                }; SPAN],
            ),
            occupied: [0; SPAN / 64],
            low_word: SPAN / 64,
            links: Vec::new(),
            free_link: NIL,
            ring: vec![Vec::new(); RING as usize],
            beyond: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    pub fn push(&mut self, time: Time, slot: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let key = Key { time, seq, slot };
        let window = key.window();
        if window == self.cur {
            self.append(key);
        } else if window < self.cur {
            self.early.push(key);
        } else if window - self.cur < RING {
            self.ring[(window % RING) as usize].push(key);
        } else {
            self.beyond.push(key);
        }
    }

    /// Appends `key`, of window `cur`, to the FIFO of its µs.
    fn append(&mut self, key: Key) {
        let link = Link {
            seq: key.seq,
            slot: key.slot,
            next: NIL,
        };
        let i = if self.free_link == NIL {
            self.links.push(link);
            (self.links.len() - 1) as u32
        } else {
            let i = self.free_link;
            self.free_link = self.links[i as usize].next;
            self.links[i as usize] = link;
            i
        };
        let us = (key.time.0 & (SPAN as u64 - 1)) as usize;
        let fifo = &mut self.lists[us];
        if fifo.head == NIL {
            fifo.head = i;
            self.occupied[us / 64] |= 1 << (us % 64);
            self.low_word = self.low_word.min(us / 64);
        } else {
            self.links[fifo.tail as usize].next = i;
        }
        fifo.tail = i;
    }

    /// The earliest µs of window `cur` whose FIFO holds a key, moving to
    /// the next window that holds one if this one is drained.
    fn next_us(&mut self) -> Option<usize> {
        self.first_us().or_else(|| {
            self.advance();
            self.first_us()
        })
    }

    /// The earliest µs of window `cur` whose FIFO holds a key.
    fn first_us(&mut self) -> Option<usize> {
        while self.low_word < self.occupied.len() {
            let word = self.occupied[self.low_word];
            if word != 0 {
                return Some(self.low_word * 64 + word.trailing_zeros() as usize);
            }
            self.low_word += 1;
        }
        None
    }

    /// With `early` and `lists` empty, moves `cur` to the earliest window
    /// that holds a key — the nearer of the ring's next occupied slot and
    /// `beyond`'s top — and that window's keys into `lists`: `beyond`'s
    /// first, then the ring slot's, so each FIFO stays in `seq` order.
    fn advance(&mut self) {
        let in_ring =
            (self.cur + 1..self.cur + RING).find(|w| !self.ring[(w % RING) as usize].is_empty());
        let far = self.beyond.peek().map(Key::window);
        let Some(next) = in_ring.into_iter().chain(far).min() else {
            return;
        };
        self.cur = next;
        while self.beyond.peek().is_some_and(|k| k.window() == next) {
            let key = self.beyond.pop().expect("peeked");
            self.append(key);
        }
        // An occupied slot holds one window's keys, and a `next` past the
        // ring's reach means the whole ring is empty. The bucket goes back
        // with its capacity kept.
        let mut bucket = std::mem::take(&mut self.ring[(next % RING) as usize]);
        for key in bucket.drain(..) {
            self.append(key);
        }
        self.ring[(next % RING) as usize] = bucket;
    }

    /// Takes the earliest key out of wherever it waits.
    pub fn pop(&mut self) -> Option<Key> {
        if let Some(key) = self.early.pop() {
            self.len -= 1;
            return Some(key);
        }
        let us = self.next_us()?;
        self.len -= 1;
        let fifo = &mut self.lists[us];
        let i = fifo.head;
        let link = self.links[i as usize];
        fifo.head = link.next;
        if link.next == NIL {
            self.occupied[us / 64] &= !(1 << (us % 64));
        }
        self.links[i as usize].next = self.free_link;
        self.free_link = i;
        Some(Key {
            time: Time((self.cur << WINDOW_BITS) | us as u64),
            seq: link.seq,
            slot: link.slot,
        })
    }

    /// `&mut` because looking past an empty window advances `cur`.
    pub fn peek_time(&mut self) -> Option<Time> {
        if let Some(key) = self.early.peek() {
            return Some(key.time);
        }
        let us = self.next_us()?;
        Some(Time((self.cur << WINDOW_BITS) | us as u64))
    }

    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const WINDOW: u64 = 1 << WINDOW_BITS;

    /// Keys on the current window's FIFOs, counted by walking each FIFO;
    /// also checks that the occupancy map marks exactly the non-empty ones
    /// and that none lies below `low_word`.
    fn listed(q: &EventQueue) -> usize {
        assert!(q.occupied[..q.low_word.min(q.occupied.len())]
            .iter()
            .all(|&w| w == 0));
        let mut n = 0;
        for (us, fifo) in q.lists.iter().enumerate() {
            let marked = q.occupied[us / 64] >> (us % 64) & 1 == 1;
            assert_eq!(marked, fifo.head != NIL, "occupancy of µs {us}");
            let mut i = fifo.head;
            while i != NIL {
                n += 1;
                i = q.links[i as usize].next;
            }
        }
        n
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue = EventQueue::new();
        q.push(Time(30), 0);
        q.push(Time(10), 1);
        q.push(Time(20), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|k| k.time.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue = EventQueue::new();
        q.push(Time(5), 9);
        q.push(Time(5), 7);
        q.push(Time(5), 8);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|k| k.slot).collect();
        assert_eq!(order, vec![9, 7, 8]);
    }

    /// Pops everything; `(time, slot)` per key.
    fn pop_all(q: &mut EventQueue) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|k| (k.time.0, k.slot))
            .collect()
    }

    #[test]
    fn ties_straddling_a_window_boundary_keep_insertion_order() {
        let mut q: EventQueue = EventQueue::new();
        // The last µs of window 2 and the first of window 3, interleaved,
        // pushed while `cur` is still 0 so both go through the ring.
        let (last, first) = (3 * WINDOW - 1, 3 * WINDOW);
        for (slot, time) in (0..).zip([first, last, first, last, last, first]) {
            q.push(Time(time), slot);
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
        let mut q: EventQueue = EventQueue::new();
        let w4 = 4 * WINDOW;
        q.push(Time(w4 + 500), 0);
        // Looking drains ring slot 4 into the heap and moves `cur` to 4.
        assert_eq!(q.peek_time(), Some(Time(w4 + 500)));
        assert_eq!((q.cur, q.ring[4].len(), listed(&q)), (4, 0, 1));
        // The same window again, earlier and later than the key moved in …
        q.push(Time(w4 + 100), 1);
        q.push(Time(w4 + 900), 2);
        // … and the window that shares its ring slot, one lap ahead.
        q.push(Time(w4 + RING * WINDOW), 3);
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
        let mut q: EventQueue = EventQueue::new();
        let far = (RING + 10) * WINDOW;
        q.push(Time(far + 7), 0);
        q.push(Time(far + 3), 1);
        assert_eq!(q.beyond.len(), 2);
        // `cur` moves to window 20: window RING + 10 is now in ring range,
        // the two keys above stay where they were put.
        q.push(Time(20 * WINDOW), 2);
        assert_eq!(q.pop().map(|k| k.slot), Some(2));
        q.push(Time(far + 5), 3);
        q.push(Time(far + 3), 4);
        q.push(Time(far + WINDOW), 5);
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

    #[test]
    fn one_us_takes_beyond_ring_and_direct_keys_in_seq_order_across_a_drain() {
        let mut q = EventQueue::new();
        let far = (RING + 10) * WINDOW;
        let t = far + 5;
        // Slots 0..3 at `t` while `cur` is 0: `beyond`, pushed out of
        // time order with a key one µs either side.
        q.push(Time(t + 1), 100);
        for slot in 0..3 {
            q.push(Time(t), slot);
        }
        q.push(Time(t - 1), 101);
        // `cur` moves to window 20, which brings `t`'s window into ring
        // range: slots 3..6 go to the ring.
        q.push(Time(20 * WINDOW), 99);
        assert_eq!(q.pop().map(|k| k.slot), Some(99));
        for slot in 3..6 {
            q.push(Time(t), slot);
        }
        assert_eq!((q.cur, q.beyond.len()), (20, 5));
        assert_eq!(q.ring[((RING + 10) % RING) as usize].len(), 3);
        // Looking drains the window: `beyond` first, then the ring.
        assert_eq!(q.peek_time(), Some(Time(t - 1)));
        assert_eq!((q.cur, listed(&q), q.beyond.len()), (RING + 10, 8, 0));
        // Direct pushes to the same µs queue behind them …
        for slot in 6..8 {
            q.push(Time(t), slot);
        }
        assert_eq!(q.pop().map(|k| k.slot), Some(101));
        assert_eq!(q.pop().map(|k| k.slot), Some(0));
        // … and so do pushes made after the µs started popping.
        q.push(Time(t), 8);
        let mut want: Vec<(u64, u32)> = (1..9).map(|slot| (t, slot)).collect();
        want.push((t + 1, 100));
        assert_eq!(pop_all(&mut q), want);
    }

    proptest! {
        /// Pops are globally ordered by (time, insertion sequence) for any
        /// insertion pattern.
        #[test]
        fn prop_pops_sorted(times in proptest::collection::vec(0u64..1_000, 1..100)) {
            let mut q: EventQueue = EventQueue::new();
            for (slot, &t) in (0..).zip(&times) {
                q.push(Time(t), slot);
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
        slot: u32,
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
        /// ring, past its horizon and before the last pop; slots tagged in
        /// their top bits as the simulator tags them; queues kept long or
        /// nearly empty by `push_share` — with pops and peeks yields the
        /// reference queue's `(time, seq, slot)` sequence, length and next
        /// time, and the link pool never outgrows the peak number of keys
        /// queued at once.
        #[test]
        fn prop_matches_the_whole_event_heap(
            ops in proptest::collection::vec((0u8..8, 0u32..3, 0u8..5, 0u64..4_000), 1..400),
            push_share in 2u8..7,
            peek_every_step in 0u8..2,
        ) {
            let mut q: EventQueue = EventQueue::new();
            let mut model: BinaryHeap<ModelEvent> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut last = 0u64;
            let mut peak = 0usize;
            // Then pop until both are empty.
            let drain = std::iter::repeat_n((push_share, 0, 0, 0), ops.len());
            for (i, (op, tag, region, offset)) in ops.into_iter().chain(drain).enumerate() {
                if op < push_share {
                    let time = Time(time_for(region, offset, last));
                    let slot = i as u32 | tag << 30;
                    q.push(time, slot);
                    model.push(ModelEvent { time, seq: next_seq, slot });
                    next_seq += 1;
                    peak = peak.max(model.len());
                } else if op < 7 {
                    let (got, want) = (q.pop(), model.pop());
                    prop_assert_eq!(
                        got.map(|k| (k.time, k.seq, k.slot)),
                        want.as_ref().map(|e| (e.time, e.seq, e.slot))
                    );
                    if let Some(got) = got {
                        last = got.time.0;
                    }
                }
                if op == 7 || peek_every_step == 1 {
                    prop_assert_eq!(q.peek_time(), model.peek().map(|e| e.time));
                }
                prop_assert_eq!(q.len(), model.len());
                let keys = q.early.len() + listed(&q) + q.beyond.len() + q.ring.iter().map(Vec::len).sum::<usize>();
                prop_assert_eq!(keys, model.len());
                prop_assert!(q.links.len() <= peak, "links {} > peak {}", q.links.len(), peak);
            }
            prop_assert_eq!(q.len(), 0);
            prop_assert_eq!(q.peek_time(), None);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q: EventQueue = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(Time(42), 0);
        assert_eq!(q.peek_time(), Some(Time(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
