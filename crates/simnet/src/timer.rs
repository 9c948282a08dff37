//! At most one live timer of a kind: an election timeout, a view-change
//! watchdog.

use crate::node::{Context, Payload, TimerId};

/// A timer slot that holds at most one armed timer. The owner calls
/// [`LiveTimer::fired`] from its timer handler, so the slot knows the timer
/// is gone.
#[derive(Debug, Default)]
pub struct LiveTimer(Option<TimerId>);

impl LiveTimer {
    /// Cancels the running timer, if any, and arms a new one.
    pub fn restart<M: Payload>(&mut self, ctx: &mut Context<M>, delay: u64, kind: u64) {
        self.cancel(ctx);
        self.0 = Some(ctx.set_timer(delay, kind));
    }

    /// Arms a timer unless one is running.
    pub fn arm_if_idle<M: Payload>(&mut self, ctx: &mut Context<M>, delay: u64, kind: u64) {
        if self.0.is_none() {
            self.0 = Some(ctx.set_timer(delay, kind));
        }
    }

    /// Cancels the running timer, if any.
    pub fn cancel<M: Payload>(&mut self, ctx: &mut Context<M>) {
        if let Some(t) = self.0.take() {
            ctx.cancel_timer(t);
        }
    }

    /// The timer fired, or died with a crash: the slot is idle.
    pub fn fired(&mut self) {
        self.0 = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, Node, NodeId, Sim, Time, Timer};

    #[derive(Clone, Debug)]
    enum Op {
        Restart(u64),
        ArmIfIdle(u64),
        Cancel,
    }

    impl Payload for Op {}

    /// Applies each delivered op to its slot and records when it fires.
    #[derive(Default)]
    struct Owner {
        slot: LiveTimer,
        fired: Vec<u64>,
    }

    impl Node for Owner {
        type Msg = Op;

        fn on_start(&mut self, _ctx: &mut Context<Op>) {}

        fn on_message(&mut self, ctx: &mut Context<Op>, _from: NodeId, op: Op) {
            match op {
                Op::Restart(delay) => self.slot.restart(ctx, delay, 1),
                Op::ArmIfIdle(delay) => self.slot.arm_if_idle(ctx, delay, 1),
                Op::Cancel => self.slot.cancel(ctx),
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<Op>, _timer: Timer) {
            self.slot.fired();
            self.fired.push(ctx.now().0);
        }
    }

    fn run(ops: &[(u64, Op)]) -> Vec<u64> {
        let mut sim: Sim<Owner> = Sim::new(NetConfig::synchronous(), 1);
        sim.add_node(Owner::default());
        for (at, op) in ops {
            sim.inject(NodeId(0), NodeId(0), op.clone(), Time(*at));
        }
        sim.run_until(Time(1_000_000));
        sim.node(NodeId(0)).fired.clone()
    }

    #[test]
    fn one_timer_lives_at_a_time() {
        // A restart replaces the running timer; arm-if-idle leaves it be.
        let ops = [
            (0, Op::Restart(100)),
            (50, Op::Restart(100)),
            (60, Op::ArmIfIdle(10)),
        ];
        assert_eq!(run(&ops), [150]);
        // Once it fired, arm-if-idle arms again.
        let ops = [(0, Op::ArmIfIdle(100)), (200, Op::ArmIfIdle(100))];
        assert_eq!(run(&ops), [100, 300]);
        // Cancel stops it and leaves the slot idle.
        let ops = [
            (0, Op::Restart(100)),
            (50, Op::Cancel),
            (60, Op::ArmIfIdle(100)),
        ];
        assert_eq!(run(&ops), [160]);
    }
}
