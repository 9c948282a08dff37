//! Structural stand-ins for cryptography.
//!
//! The surveyed protocols use digests, MACs/signatures, threshold
//! signatures, and trusted monotonic counters. Their *logic* depends only
//! on what these primitives prove, so we substitute structural equivalents
//! (see DESIGN.md): the simulator authenticates senders, and certificates
//! carry the explicit signer sets a verifier would check. A [`Digest`] is a
//! fixed-seed hash of the payload's bytes, recomputed by whoever receives
//! the payload and never carried with or cached on it.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use simnet::NodeId;

/// A message digest: the value's `Hash` impl fed through one fixed-seed
/// hasher. *Not* forgeable within the model, because Byzantine nodes can
/// only substitute whole messages, which the receivers re-digest
/// themselves. Its value is unobservable: digests are only ever compared
/// for equality or used as vote-map keys, so no trace, fingerprint or
/// artifact depends on the function chosen (the *state* digest that
/// fingerprints do carry is [`consensus_core::StateMachine::digest`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Digest(pub u64);

/// Word-at-a-time multiplicative hasher: one rotate-xor-multiply per eight
/// input bytes, so digesting a 16 KiB batch costs about what copying it
/// does.
struct WordHasher(u64);

impl WordHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.mix(u64::from_le_bytes(tail));
        // The zero padding makes "ab" and "ab\0" the same word; the length
        // tells them (and differently cut writes) apart.
        self.mix(bytes.len() as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weak; two avalanche rounds
        // (splitmix64's finalizer) spread every input bit over the result.
        let mut h = self.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// Digests any hashable value.
pub fn digest_of<T: Hash + ?Sized>(value: &T) -> Digest {
    let mut h = WordHasher(0xcbf2_9ce4_8422_2325);
    value.hash(&mut h);
    Digest(h.finish())
}

/// A quorum certificate: proof that `signers` (distinct replicas) endorsed
/// `digest`. Stands in for a `(k,n)`-threshold signature — verification
/// checks the signer count against the threshold, exactly what threshold
/// signature verification proves.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct QuorumCert {
    /// What was endorsed.
    pub digest: Digest,
    /// Who endorsed it.
    pub signers: BTreeSet<NodeId>,
}

impl QuorumCert {
    /// An empty certificate for `digest`.
    pub fn new(digest: Digest) -> Self {
        QuorumCert {
            digest,
            signers: BTreeSet::new(),
        }
    }

    /// Adds a signer's share; returns true if newly added.
    pub fn add(&mut self, signer: NodeId) -> bool {
        self.signers.insert(signer)
    }

    /// Whether the certificate carries at least `threshold` distinct shares.
    pub fn complete(&self, threshold: usize) -> bool {
        self.signers.len() >= threshold
    }
}

/// A Unique Sequential Identifier Generator — MinBFT/CheapBFT's trusted
/// component. The counter is monotonic *by construction* (the only mutating
/// method increments it), which is precisely the guarantee the trusted
/// hardware provides: a Byzantine replica may refuse to send or send
/// corrupted payloads, but it cannot produce two different messages bearing
/// the same counter value, nor skip backwards.
#[derive(Clone, Debug)]
pub struct Usig {
    owner: NodeId,
    counter: u64,
}

/// An attestation produced by a [`Usig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UsigCert {
    /// The attesting replica.
    pub owner: NodeId,
    /// The unique, sequential counter value.
    pub counter: u64,
    /// Digest of the attested message.
    pub digest: Digest,
}

impl Usig {
    /// Creates the trusted component for `owner`.
    pub fn new(owner: NodeId) -> Self {
        Usig { owner, counter: 0 }
    }

    /// Hands the component to `owner`. The counter is untouched: it is what
    /// the hardware keeps across restarts.
    pub fn bind(&mut self, owner: NodeId) {
        self.owner = owner;
    }

    /// Assigns the next counter value to `digest`.
    pub fn create(&mut self, digest: Digest) -> UsigCert {
        self.counter += 1;
        UsigCert {
            owner: self.owner,
            counter: self.counter,
            digest,
        }
    }

    /// The last issued counter.
    pub fn counter(&self) -> u64 {
        self.counter
    }
}

/// Verifier-side USIG state: accepts certificates from each replica only in
/// strict counter order, which is what makes equivocation impossible — two
/// different messages cannot both be "message number k from replica r".
#[derive(Clone, Debug, Default)]
pub struct UsigVerifier {
    last_seen: std::collections::BTreeMap<NodeId, u64>,
}

impl UsigVerifier {
    /// Creates an empty verifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts `cert` iff it is the next counter from its owner and it
    /// matches `expected` digest. Advances the window on success.
    pub fn verify(&mut self, cert: &UsigCert, expected: Digest) -> bool {
        if cert.digest != expected {
            return false;
        }
        let last = self.last_seen.entry(cert.owner).or_insert(0);
        if cert.counter == *last + 1 {
            *last = cert.counter;
            true
        } else {
            false
        }
    }

    /// Accepts `cert` iff its counter is strictly greater than the last
    /// accepted one from its owner (gaps allowed — the owner may have
    /// attested messages we never saw). Sufficient to exclude equivocation:
    /// no two accepted certificates share a counter.
    pub fn verify_monotonic(&mut self, cert: &UsigCert, expected: Digest) -> bool {
        if cert.digest != expected {
            return false;
        }
        let last = self.last_seen.entry(cert.owner).or_insert(0);
        if cert.counter > *last {
            *last = cert.counter;
            true
        } else {
            false
        }
    }

    /// Advances the expected-counter window for `owner` to `counter`
    /// (used after a view change, when the new primary attests its counter
    /// base in the NewView message).
    pub fn fast_forward(&mut self, owner: NodeId, counter: u64) {
        let last = self.last_seen.entry(owner).or_insert(0);
        *last = (*last).max(counter);
    }

    /// The last accepted counter from `owner`.
    pub fn last(&self, owner: NodeId) -> u64 {
        self.last_seen.get(&owner).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::{Command, KvCommand, KvResponse, Str};
    use proptest::prelude::*;

    #[test]
    fn digests_are_stable_and_distinguishing() {
        assert_eq!(digest_of(&42u64), digest_of(&42u64));
        assert_ne!(digest_of(&42u64), digest_of(&43u64));
        assert_ne!(digest_of(&"a"), digest_of(&"b"));
    }

    fn put(client: u32, seq: u64, key: &str, value: &str) -> Command<KvCommand> {
        let (key, value) = (key.into(), value.into());
        Command {
            client,
            seq,
            op: KvCommand::Put { key, value },
        }
    }

    #[test]
    fn equal_values_digest_equal_whatever_allocation_holds_them() {
        let batch = |v: &str| (0..16).map(|i| put(7, i, "k", v)).collect::<Vec<_>>();
        let big = "x✓".repeat(256);
        assert_eq!(digest_of(&batch(&big)), digest_of(&batch(&big)));
        assert_eq!(
            digest_of(&(3u64, &batch("v"))),
            digest_of(&(3u64, &batch("v")))
        );
        let shared = batch("v");
        assert_eq!(digest_of(&shared), digest_of(&shared.clone()));
    }

    #[test]
    fn digests_tell_near_misses_apart() {
        assert_ne!(digest_of(&("ab", "c")), digest_of(&("a", "bc")));
        assert_ne!(
            digest_of(&put(1, 0, "ab", "c")),
            digest_of(&put(1, 0, "a", "bc"))
        );
        let batch: Vec<_> = (0..16).map(|i| put(7, i, "k", "v")).collect();
        let mut swapped = batch.clone();
        swapped.swap(3, 11);
        assert_ne!(digest_of(&batch), digest_of(&swapped));
        // The last byte lands in a full word, a lone tail byte, or a
        // longer tail depending on the length; every case must count.
        for len in [7, 8, 9, 1_023, 1_024, 1_025] {
            let a = "x".repeat(len);
            let b = format!("{}y", &a[1..]);
            assert_ne!(digest_of(&a), digest_of(&b), "length {len}");
            assert_ne!(
                digest_of(&put(1, 0, "k", &a)),
                digest_of(&put(1, 0, "k", &b))
            );
        }
        assert_ne!(
            digest_of(&KvResponse::Value(None)),
            digest_of(&KvResponse::Value(Some("".into())))
        );
        assert_ne!(digest_of("ab"), digest_of("ab\0"));
    }

    #[test]
    fn quorum_cert_counts_distinct_signers() {
        let mut qc = QuorumCert::new(digest_of(&1));
        assert!(qc.add(NodeId(0)));
        assert!(!qc.add(NodeId(0)), "duplicate shares don't count");
        qc.add(NodeId(1));
        qc.add(NodeId(2));
        assert!(qc.complete(3));
        assert!(!qc.complete(4));
    }

    #[test]
    fn usig_counters_are_sequential() {
        let mut usig = Usig::new(NodeId(1));
        let d = digest_of(&"m");
        let c1 = usig.create(d);
        let c2 = usig.create(d);
        assert_eq!(c1.counter, 1);
        assert_eq!(c2.counter, 2);
    }

    #[test]
    fn verifier_rejects_gaps_replays_and_wrong_digests() {
        let mut usig = Usig::new(NodeId(1));
        let mut verifier = UsigVerifier::new();
        let d1 = digest_of(&"m1");
        let d2 = digest_of(&"m2");
        let d3 = digest_of(&"m3");
        let c1 = usig.create(d1);
        let c2 = usig.create(d2);
        let c3 = usig.create(d3);
        // Wrong digest: the attestation doesn't cover this message.
        assert!(!verifier.verify(&c1, d2));
        assert!(verifier.verify(&c1, d1));
        // Replay rejected.
        assert!(!verifier.verify(&c1, d1));
        // Gap rejected (c3 before c2).
        assert!(!verifier.verify(&c3, d3));
        assert!(verifier.verify(&c2, d2));
        assert!(verifier.verify(&c3, d3));
        assert_eq!(verifier.last(NodeId(1)), 3);
    }

    proptest! {
        /// However many of 1 000 random commands are distinct, that many
        /// digests are.
        #[test]
        fn prop_no_collision_among_a_thousand_commands(
            raw in proptest::collection::vec((0u32..4, 0u64..64, 0u8..4, 0u64..512, 0usize..40), 1_000..1_001)
        ) {
            let cmds: std::collections::HashSet<Command<KvCommand>> = raw
                .into_iter()
                .map(|(client, seq, kind, k, pad)| {
                    let (key, value): (Str, Str) = (format!("k{k}").into(), "v".repeat(pad).into());
                    let op = match kind {
                        0 => KvCommand::Put { key, value },
                        1 => KvCommand::Get { key },
                        2 => KvCommand::Delete { key },
                        _ => KvCommand::Cas { key: value.clone(), expect: key, new: value },
                    };
                    Command { client, seq, op }
                })
                .collect();
            let digests: BTreeSet<Digest> = cmds.iter().map(digest_of).collect();
            prop_assert_eq!(digests.len(), cmds.len());
        }

        /// No interleaving of create calls can produce two accepted
        /// certificates with the same counter (the USIG non-equivocation
        /// property).
        #[test]
        fn prop_usig_no_equivocation(msgs in proptest::collection::vec(0u64..100, 1..50)) {
            let mut usig = Usig::new(NodeId(7));
            let mut verifier = UsigVerifier::new();
            let mut accepted_counters = std::collections::BTreeSet::new();
            for m in msgs {
                let d = digest_of(&m);
                let cert = usig.create(d);
                if verifier.verify(&cert, d) {
                    prop_assert!(accepted_counters.insert(cert.counter),
                        "counter {} accepted twice", cert.counter);
                }
            }
        }
    }
}
