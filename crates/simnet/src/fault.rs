//! Byzantine fault injection: outbound message filters.
//!
//! Crash and crash-recovery faults are scheduled with
//! [`crate::Sim::crash_at`] / [`crate::Sim::restart_at`]. *Byzantine*
//! behaviour is modelled two ways:
//!
//! 1. Implementing a malicious [`crate::Node`] directly (full control), or
//! 2. Wrapping a correct node with a [`Filter`] installed via
//!    [`crate::Sim::set_filter`] that intercepts every outbound message and
//!    may drop, mutate, or replace it **per destination** — which is exactly
//!    what equivocation ("tell N1 accept=val1 and tell N2 accept=val2") is.
//!
//! Filters cannot forge the sender identity; the channel authentication
//! assumption holds regardless of what a filter does.

use rand_chacha::ChaCha20Rng;

use crate::time::NodeId;

/// What to do with one outbound message.
#[derive(Debug)]
pub enum FilterAction<M> {
    /// Deliver the message unchanged.
    Deliver,
    /// Silently drop it (omission / "refuse to pass on information").
    Drop,
    /// Deliver a different message instead (lying / equivocation when the
    /// replacement varies by destination).
    Replace(M),
}

/// Intercepts every message a node sends.
pub trait Filter<M>: Send {
    /// Decide the fate of `msg` travelling `from → to`.
    fn outgoing(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &M,
        rng: &mut ChaCha20Rng,
    ) -> FilterAction<M>;
}

/// Adapter turning a closure into a [`Filter`].
pub struct FnFilter<F>(pub F);

impl<M, F> Filter<M> for FnFilter<F>
where
    F: FnMut(NodeId, NodeId, &M, &mut ChaCha20Rng) -> FilterAction<M> + Send,
{
    fn outgoing(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &M,
        rng: &mut ChaCha20Rng,
    ) -> FilterAction<M> {
        (self.0)(from, to, msg, rng)
    }
}

/// Equivocation helper: tells different peers different things.
///
/// Destinations registered with [`Equivocate::tell`] receive the registered
/// payload in place of whatever the wrapped node actually sent; everyone else
/// sees the original message. This is the textbook Byzantine lie — "accept
/// v1" to one quorum, "accept v2" to another — packaged so fault schedules
/// don't need a bespoke closure per protocol.
pub struct Equivocate<M> {
    variants: Vec<(NodeId, M)>,
}

impl<M: Clone> Equivocate<M> {
    /// An equivocator with no lies registered yet (delivers everything).
    pub fn new() -> Self {
        Equivocate {
            variants: Vec::new(),
        }
    }

    /// Registers the payload `to` should receive instead of the truth.
    /// Re-registering a destination overwrites the earlier lie.
    pub fn tell(mut self, to: NodeId, msg: M) -> Self {
        if let Some(slot) = self.variants.iter_mut().find(|(d, _)| *d == to) {
            slot.1 = msg;
        } else {
            self.variants.push((to, msg));
        }
        self
    }
}

impl<M: Clone> Default for Equivocate<M> {
    fn default() -> Self {
        Equivocate::new()
    }
}

impl<M: Clone + Send> Filter<M> for Equivocate<M> {
    fn outgoing(
        &mut self,
        _from: NodeId,
        to: NodeId,
        _msg: &M,
        _rng: &mut ChaCha20Rng,
    ) -> FilterAction<M> {
        match self.variants.iter().find(|(d, _)| *d == to) {
            Some((_, lie)) => FilterAction::Replace(lie.clone()),
            None => FilterAction::Deliver,
        }
    }
}

/// A filter that drops everything — a "mute" Byzantine node that still runs
/// locally but never communicates.
pub struct DropAll;

impl<M> Filter<M> for DropAll {
    fn outgoing(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _msg: &M,
        _rng: &mut ChaCha20Rng,
    ) -> FilterAction<M> {
        FilterAction::Drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fn_filter_delegates() {
        let mut rng = ChaCha20Rng::seed_from_u64(0);
        let mut f = FnFilter(|_from, to: NodeId, msg: &u32, _rng: &mut ChaCha20Rng| {
            if to == NodeId(2) {
                FilterAction::Replace(msg + 100)
            } else {
                FilterAction::Deliver
            }
        });
        match f.outgoing(NodeId(0), NodeId(2), &5, &mut rng) {
            FilterAction::Replace(v) => assert_eq!(v, 105),
            other => panic!("expected Replace, got {other:?}"),
        }
        assert!(matches!(
            f.outgoing(NodeId(0), NodeId(1), &5, &mut rng),
            FilterAction::Deliver
        ));
    }

    #[test]
    fn equivocate_lies_per_destination() {
        let mut rng = ChaCha20Rng::seed_from_u64(0);
        let mut f = Equivocate::new()
            .tell(NodeId(1), 111u32)
            .tell(NodeId(2), 222)
            .tell(NodeId(1), 101); // overwrite the first lie
        match f.outgoing(NodeId(0), NodeId(1), &5, &mut rng) {
            FilterAction::Replace(v) => assert_eq!(v, 101),
            other => panic!("expected Replace, got {other:?}"),
        }
        match f.outgoing(NodeId(0), NodeId(2), &5, &mut rng) {
            FilterAction::Replace(v) => assert_eq!(v, 222),
            other => panic!("expected Replace, got {other:?}"),
        }
        // Unregistered destinations hear the truth.
        assert!(matches!(
            f.outgoing(NodeId(0), NodeId(3), &5, &mut rng),
            FilterAction::Deliver
        ));
    }

    #[test]
    fn drop_all_drops() {
        let mut rng = ChaCha20Rng::seed_from_u64(0);
        let mut f = DropAll;
        assert!(matches!(
            Filter::<u32>::outgoing(&mut f, NodeId(0), NodeId(1), &1, &mut rng),
            FilterAction::Drop
        ));
    }
}
