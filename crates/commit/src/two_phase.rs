//! 2PC's tests. Gray & Lamport's 2PC is Paxos Commit at `F = 0`, so this
//! crate has no 2PC machine of its own: every run below is
//! [`crate::paxos_commit::build`] (or `build_with_crash`) with `f = 0` —
//! one coordinator whose co-located acceptor is the only one.

#[cfg(test)]
mod tests {
    use simnet::{NetConfig, Time};

    use crate::msg::TxnState;
    use crate::paxos_commit::{
        blocked_rounds, build, build_with_crash, participant_states, CrashPoint, Layout,
    };

    /// 2PC: Paxos Commit with no backup coordinator and one acceptor.
    const F: usize = 0;

    #[test]
    fn unanimous_yes_commits_everywhere() {
        let mut sim = build(&[true, true, true], F, NetConfig::lan(), 1);
        sim.run_until(Time::from_secs(1));
        assert!(participant_states(&sim)
            .iter()
            .all(|s| *s == TxnState::Committed));
        // Phase structure: 3 vote-requests, 3 votes, 3 commits.
        assert_eq!(sim.metrics().kind("vote-request"), 3);
        assert_eq!(sim.metrics().kind("phase2a"), 3);
        assert_eq!(sim.metrics().kind("outcome"), 3);
    }

    #[test]
    fn single_no_aborts_everywhere() {
        let mut sim = build(&[true, false, true], F, NetConfig::lan(), 2);
        sim.run_until(Time::from_secs(1));
        assert!(participant_states(&sim)
            .iter()
            .all(|s| *s == TxnState::Aborted));
    }

    #[test]
    fn blocking_window_blocks_forever() {
        // The coordinator freezes after collecting every yes vote and before
        // any decision escapes, taking the only acceptor with it. No seed
        // and no amount of waiting frees the prepared participants: they
        // keep re-sending their votes into the void — 2PC's fundamental
        // weakness.
        for seed in 0..8u64 {
            let mut sim = build_with_crash(
                &[true, true, true],
                F,
                CrashPoint::AfterVotes,
                NetConfig::lan(),
                seed,
            );
            sim.run_until(Time::from_secs(2));
            let early = blocked_rounds(&sim);
            sim.run_until(Time::from_secs(10));
            let states = participant_states(&sim);
            assert!(
                states.iter().all(|s| *s == TxnState::Ready),
                "seed {seed}: participants must stay blocked: {states:?}"
            );
            assert!(early > 0, "seed {seed}: participants noticed the stall");
            assert!(
                blocked_rounds(&sim) > early,
                "seed {seed}: still blocked, still finding no exit"
            );
        }
    }

    #[test]
    fn participant_crash_before_voting_aborts() {
        // A participant that never votes ⇒ the coordinator never gets all
        // votes and never decides commit. 2PC has no backup coordinator to
        // run the free abort, so the live participants hold Ready (blocked)
        // since nobody can rule out a commit; a real system adds an abort
        // timeout at the coordinator.
        let mut sim = build(&[true, true, true], F, NetConfig::lan(), 5);
        let layout = Layout { f: F, n_rms: 3 };
        let second_rm = layout.rms().nth(1).expect("three RMs");
        sim.crash_at(second_rm, Time(0));
        sim.run_until(Time::from_secs(1));
        let states = participant_states(&sim);
        assert_eq!(
            states[1],
            TxnState::Initial,
            "crashed participant is frozen"
        );
        for s in [states[0], states[2]] {
            assert_eq!(s, TxnState::Ready, "live participants stay blocked");
        }
    }

    #[test]
    fn message_counts_are_linear() {
        // Three linear phases: a commit costs exactly 3n messages, and an
        // abort never more.
        for n in [3usize, 6, 9] {
            let votes = vec![true; n];
            let mut sim = build(&votes, F, NetConfig::lan(), 6);
            sim.run_until(Time::from_secs(1));
            assert_eq!(sim.metrics().sent, 3 * n as u64, "3 linear phases");

            let mut votes = votes;
            votes[n / 2] = false;
            let mut sim = build(&votes, F, NetConfig::lan(), 6);
            sim.run_until(Time::from_secs(1));
            assert!(
                sim.metrics().sent <= 3 * n as u64,
                "n={n}: abort sent {}",
                sim.metrics().sent
            );
        }
    }
}
