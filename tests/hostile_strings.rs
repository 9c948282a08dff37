//! Hostile strings into the store's text decoders (ROADMAP 5d): the shard
//! map, intent records, transaction ids, vote registers and write-sets.
//! Every decoder takes any string without panicking, and every value it
//! accepts — or any valid value encoded — decodes back to itself.

use forty::consensus_core::txn::{self, TxnId};
use forty::store::{decode_intent, encode_intent, CommitBackend, ShardMap};
use proptest::prelude::*;

/// Fragments of the decoders' grammars (separators, prefixes, whole fields,
/// the ring's last bound), digits, and characters that are not ASCII, so
/// slicing at a byte offset would panic. Strings are concatenations of
/// these, which reach accepting inputs far more often than random bytes.
const HOSTILE: &[&str] = &[
    "ffffffffffffffff",
    ":",
    ",",
    "|",
    ".",
    "!",
    ";",
    "=",
    "@",
    "~",
    "0",
    "1",
    "7",
    "10",
    "+",
    "-",
    "F",
    "t",
    "p:",
    "2pc!",
    "pc!",
    "aborted",
    "18446744073709551616",
    " ",
    "é",
    "🦀",
    "\0",
];

/// Shard-map range bounds and group ids: valid, out of range, and garbled.
const BOUNDS: [&str; 8] = [
    "ffffffffffffffff",
    "FFFFFFFFFFFFFFFF",
    "10",
    "0",
    "+20",
    "",
    "1ffffffffffffffff",
    "é",
];
/// Shard-map group ids, and the fields of a `t<client>.<number>` id.
const NUMBERS: [&str; 8] = ["0", "1", "2", "7", "", "-1", "4294967296", "+1"];

/// Write-set keys and values: anything but `;` and `=`, which the store
/// bans from data keys and values.
const FIELD: &[&str] = &[
    "a", "k7", "v", "@t1.2", ":", ",", "|", ".", "!", "~", " ", "é", "🦀",
];

fn text(alphabet: &[&str], picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| alphabet[i % alphabet.len()])
        .collect()
}

fn writes(picks: &[(Vec<usize>, Vec<usize>)]) -> Vec<(String, String)> {
    picks
        .iter()
        .map(|(k, v)| (text(FIELD, k), text(FIELD, v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn shard_maps_parse_or_refuse(
        head in collection::vec(0usize..64, 0..3),
        ranges in collection::vec((0usize..8, 0usize..8), 1..5),
        tail in collection::vec(0usize..64, 0..6),
    ) {
        let ranges: Vec<String> = ranges
            .iter()
            .map(|&(b, g)| format!("{}:{}", BOUNDS[b], NUMBERS[g]))
            .collect();
        let s = format!("{}{}{}", text(HOSTILE, &head), ranges.join(","), text(HOSTILE, &tail));
        if let Some(map) = ShardMap::deserialize(&s) {
            for i in 0..32 {
                prop_assert!(map.group_of(&format!("k{i}")) < map.n_groups(), "{s:?}");
            }
            prop_assert_eq!(ShardMap::deserialize(&map.serialize()), Some(map));
        }
    }

    #[test]
    fn valid_shard_maps_round_trip(
        cuts in collection::vec(0u64..u64::MAX, 0..8),
        groups in 1u32..5,
        regions in collection::vec(0u32..3, 0..5),
    ) {
        let mut bounds = cuts;
        bounds.sort_unstable();
        bounds.dedup();
        bounds.push(u64::MAX);
        // Owners cycle through 0..groups, so every id below the count is used.
        let groups = groups.min(bounds.len() as u32);
        let ranges: Vec<String> = (0u32..)
            .zip(&bounds)
            .map(|(i, b)| format!("{b:x}:{}", i % groups))
            .collect();
        let mut wire = ranges.join(",");
        if !regions.is_empty() {
            let row: Vec<String> = regions.iter().map(u32::to_string).collect();
            let rows = vec![row.join("."); groups as usize];
            wire = format!("{wire}|{}", rows.join(","));
        }
        let map = ShardMap::deserialize(&wire);
        prop_assert!(map.is_some(), "{wire:?}");
        prop_assert_eq!(map.map(|m| m.serialize()), Some(wire));
    }

    #[test]
    fn intents_decode_anything(picks in collection::vec(0usize..64, 0..12)) {
        let (backend, shards) = decode_intent(&text(HOSTILE, &picks));
        prop_assert_eq!(decode_intent(&encode_intent(backend, &shards)), (backend, shards));
    }

    #[test]
    fn intents_round_trip(backend in 0usize..3, shards in collection::vec(0usize..1 << 20, 0..6)) {
        let backend = [
            CommitBackend::TwoPhase,
            CommitBackend::TwoPhaseOverConsensus,
            CommitBackend::PaxosCommit,
        ][backend];
        prop_assert_eq!(decode_intent(&encode_intent(backend, &shards)), (backend, shards));
    }

    #[test]
    fn txn_ids_parse_or_refuse(
        head in collection::vec(0usize..64, 0..2),
        fields in (0usize..8, 0usize..8),
        tail in collection::vec(0usize..64, 0..2),
    ) {
        let (client, number) = (NUMBERS[fields.0], NUMBERS[fields.1]);
        let s = format!("{}t{client}.{number}{}", text(HOSTILE, &head), text(HOSTILE, &tail));
        if let Some(tid) = TxnId::parse(&s) {
            prop_assert_eq!(TxnId::parse(&tid.to_string()), Some(tid));
        }
    }

    #[test]
    fn txn_ids_round_trip(client in 0u32..u32::MAX, number in 0u64..u64::MAX) {
        let tid = TxnId::new(client, number);
        prop_assert_eq!(TxnId::parse(&tid.to_string()), Some(tid));
    }

    #[test]
    fn votes_and_write_sets_decode_anything(picks in collection::vec(0usize..64, 0..12)) {
        let s = text(HOSTILE, &picks);
        let decoded = txn::decode_writes(&s);
        prop_assert_eq!(txn::decode_writes(&txn::encode_writes(&decoded)), decoded);
        if let Some(Some(writes)) = txn::parse_vote(&s) {
            let again = txn::parse_vote(&txn::vote_prepared(&writes));
            prop_assert_eq!(again, Some(Some(writes)));
        }
    }

    #[test]
    fn votes_and_write_sets_round_trip(
        picks in collection::vec(
            (collection::vec(0usize..32, 0..4), collection::vec(0usize..32, 0..4)),
            0..5,
        ),
    ) {
        let writes = writes(&picks);
        prop_assert_eq!(txn::decode_writes(&txn::encode_writes(&writes)), writes.clone());
        prop_assert_eq!(txn::parse_vote(&txn::vote_prepared(&writes)), Some(Some(writes)));
        prop_assert_eq!(txn::parse_vote(txn::VOTE_ABORTED), Some(None));
    }
}
