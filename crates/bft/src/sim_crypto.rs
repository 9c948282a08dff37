//! Structural stand-ins for cryptography.
//!
//! The surveyed protocols use digests, MACs/signatures, threshold
//! signatures, and trusted monotonic counters. Their *logic* depends only
//! on what these primitives prove, so we substitute structural equivalents
//! (see DESIGN.md): the simulator authenticates senders, and certificates
//! carry the explicit signer sets a verifier would check.

use std::collections::BTreeSet;

use simnet::NodeId;

/// A message digest (FNV-1a over the debug rendering — stable, collision
/// resistant enough for simulation, and *not* forgeable within the model
/// because Byzantine nodes can only substitute whole messages, which the
/// receivers re-digest themselves).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Digest(pub u64);

/// FNV-1a state that hashes whatever is formatted into it, so a digest
/// costs no intermediate `String`.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// Digests any debug-renderable value.
pub fn digest_of<T: std::fmt::Debug>(value: &T) -> Digest {
    use std::fmt::Write;
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing cannot fail");
    Digest(h.0)
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
    use proptest::prelude::*;

    #[test]
    fn digests_are_stable_and_distinguishing() {
        assert_eq!(digest_of(&42u64), digest_of(&42u64));
        assert_ne!(digest_of(&42u64), digest_of(&43u64));
        assert_ne!(digest_of(&"a"), digest_of(&"b"));
    }

    /// The definition `digest_of` had while it rendered into a `String`
    /// first; every digest on the wire and in a fingerprint was made by it.
    fn digest_via_string<T: std::fmt::Debug>(value: &T) -> Digest {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{value:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Digest(h)
    }

    #[test]
    fn streaming_digest_equals_the_string_rendering_definition() {
        use consensus_core::{Command, KvCommand};
        let cmd = |seq: u64, value: String| Command {
            client: 7,
            seq,
            op: KvCommand::Put {
                key: format!("k{seq}"),
                value,
            },
        };
        let one = cmd(1, "v\"quoted\"\n".into());
        let batch: Vec<Command<KvCommand>> = (0..16).map(|i| cmd(i, "x".repeat(1024))).collect();
        let big = "x✓".repeat(1024); // 4 KiB, multi-byte characters included
        assert_eq!(digest_of(&one), digest_via_string(&one));
        assert_eq!(digest_of(&batch), digest_via_string(&batch));
        assert_eq!(digest_of(&(3u64, &batch)), digest_via_string(&(3u64, &batch)));
        assert_eq!(digest_of(&(1u8, "a", Some(2.5f64))), digest_via_string(&(1u8, "a", Some(2.5f64))));
        assert_eq!(digest_of(&big), digest_via_string(&big));
        assert_eq!(digest_of(&()), digest_via_string(&()));
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
