//! The block tree: forks, heaviest-chain selection, reorgs, and stranded
//! transactions.
//!
//! "Mining is probabilistic ⇒ forks! aborts!" — two miners can extend the
//! same parent concurrently; nodes resolve forks by following the chain
//! with the **most cumulative work** (the "longest chain" of the slides,
//! measured in work so difficulty changes compare correctly). Transactions
//! in the losing branch are aborted and must be resubmitted — unless the
//! winning branch already contains them.

use std::collections::{BTreeSet, HashMap};

use crate::block::{Block, BlockHash, Transaction};
use crate::pow::{block_work, verify_pow, MiningParams};

#[derive(Clone, Debug)]
struct Stored {
    block: Block,
    height: u64,
    cum_work: u128,
}

/// What happened when a block was added.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AddOutcome {
    /// The block extends the best chain.
    ExtendedBest,
    /// The block extends a side branch (fork) without overtaking.
    SideChain,
    /// The block made a side branch the heaviest: a reorganization.
    Reorged {
        /// Blocks reverted from the old best chain (oldest first).
        reverted: usize,
        /// Transactions stranded by the reorg that need resubmission.
        resubmit: Vec<Transaction>,
    },
    /// Parent unknown: buffered until it arrives.
    Orphaned,
    /// Already known.
    Duplicate,
    /// Failed proof-of-work or structural validation.
    Invalid,
}

/// A node's view of the block tree.
pub struct Blockchain {
    params: MiningParams,
    blocks: HashMap<BlockHash, Stored>,
    orphans: HashMap<BlockHash, Vec<Block>>,
    genesis: BlockHash,
    tip: BlockHash,
    /// Validate proof-of-work on add (disabled for permissioned chains).
    pub check_pow: bool,
}

impl Blockchain {
    /// Creates a chain containing only the genesis block (not mined; by
    /// convention its hash is the zero-parent block with no transactions).
    pub fn new(params: MiningParams) -> Self {
        let genesis = Block {
            header: crate::block::BlockHeader {
                version: 2,
                prev: BlockHash::ZERO,
                merkle_root: crate::block::merkle_root(&[]),
                timestamp: 0,
                bits: params.initial_bits,
                nonce: 0,
            },
            txs: vec![],
        };
        let gh = genesis.hash();
        let mut blocks = HashMap::new();
        blocks.insert(
            gh,
            Stored {
                block: genesis,
                height: 0,
                cum_work: 0,
            },
        );
        Blockchain {
            params,
            blocks,
            orphans: HashMap::new(),
            genesis: gh,
            tip: gh,
            check_pow: true,
        }
    }

    /// The genesis hash.
    pub fn genesis(&self) -> BlockHash {
        self.genesis
    }

    /// Current best tip.
    pub fn tip(&self) -> BlockHash {
        self.tip
    }

    /// Height of the best chain (genesis = 0).
    pub fn height(&self) -> u64 {
        self.blocks[&self.tip].height
    }

    /// Looks up a block.
    pub fn block(&self, hash: &BlockHash) -> Option<&Block> {
        self.blocks.get(hash).map(|s| &s.block)
    }

    /// The best chain, genesis first.
    pub fn best_chain(&self) -> Vec<BlockHash> {
        let mut chain = Vec::new();
        let mut cur = self.tip;
        loop {
            chain.push(cur);
            if cur == self.genesis {
                break;
            }
            cur = self.blocks[&cur].block.header.prev;
        }
        chain.reverse();
        chain
    }

    /// The compact target the *next* block on the best chain must meet,
    /// applying the retarget rule at interval boundaries.
    pub fn next_bits(&self) -> u32 {
        let tip = &self.blocks[&self.tip];
        let next_height = tip.height + 1;
        if !next_height.is_multiple_of(self.params.retarget_interval) || tip.height == 0 {
            return tip.block.header.bits;
        }
        // Time the last `retarget_interval` blocks actually took.
        let mut cur = self.tip;
        for _ in 0..self.params.retarget_interval - 1 {
            let prev = self.blocks[&cur].block.header.prev;
            if prev == BlockHash::ZERO || !self.blocks.contains_key(&prev) {
                break;
            }
            cur = prev;
        }
        let span = tip
            .block
            .header
            .timestamp
            .saturating_sub(self.blocks[&cur].block.header.timestamp)
            .max(1);
        self.params.retarget(tip.block.header.bits, span)
    }

    /// Adds a block (and any orphans it unblocks).
    pub fn add_block(&mut self, block: Block) -> AddOutcome {
        let hash = block.hash();
        if self.blocks.contains_key(&hash) {
            return AddOutcome::Duplicate;
        }
        if self.check_pow && !verify_pow(&block) {
            return AddOutcome::Invalid;
        }
        if !block.is_well_formed() {
            return AddOutcome::Invalid;
        }
        let Some(parent) = self.blocks.get(&block.header.prev) else {
            self.orphans
                .entry(block.header.prev)
                .or_default()
                .push(block);
            return AddOutcome::Orphaned;
        };

        let height = parent.height + 1;
        let cum_work = parent.cum_work.saturating_add(block_work(block.header.bits));
        let old_tip = self.tip;
        let old_work = self.blocks[&old_tip].cum_work;
        self.blocks.insert(
            hash,
            Stored {
                block,
                height,
                cum_work,
            },
        );

        let outcome = if cum_work > old_work {
            if self.blocks[&hash].block.header.prev == old_tip {
                self.tip = hash;
                AddOutcome::ExtendedBest
            } else {
                // Reorg: find the fork point and collect stranded txs.
                let (reverted_blocks, new_branch) = self.diff_chains(old_tip, hash);
                self.tip = hash;
                let winning: BTreeSet<u64> = new_branch
                    .iter()
                    .flat_map(|h| self.blocks[h].block.txs.iter())
                    .map(|t| t.id)
                    .collect();
                let resubmit: Vec<Transaction> = reverted_blocks
                    .iter()
                    .flat_map(|h| self.blocks[h].block.txs.iter())
                    .filter(|t| !t.is_coinbase() && !winning.contains(&t.id))
                    .cloned()
                    .collect();
                AddOutcome::Reorged {
                    reverted: reverted_blocks.len(),
                    resubmit,
                }
            }
        } else {
            AddOutcome::SideChain
        };

        // Unblock orphans waiting on this block.
        if let Some(children) = self.orphans.remove(&hash) {
            for child in children {
                self.add_block(child);
            }
        }
        outcome
    }

    /// Walks both tips back to their common ancestor; returns
    /// `(old-branch blocks, new-branch blocks)` (tip-first order).
    fn diff_chains(&self, old_tip: BlockHash, new_tip: BlockHash) -> (Vec<BlockHash>, Vec<BlockHash>) {
        let ancestors = |mut h: BlockHash| {
            let mut set = Vec::new();
            loop {
                set.push(h);
                if h == self.genesis {
                    break;
                }
                h = self.blocks[&h].block.header.prev;
            }
            set
        };
        let old_chain = ancestors(old_tip);
        let new_chain: BTreeSet<BlockHash> = ancestors(new_tip).into_iter().collect();
        let reverted: Vec<BlockHash> = old_chain
            .iter()
            .take_while(|h| !new_chain.contains(h))
            .copied()
            .collect();
        let old_set: BTreeSet<BlockHash> = old_chain.into_iter().collect();
        let mut applied = Vec::new();
        let mut cur = new_tip;
        while !old_set.contains(&cur) {
            applied.push(cur);
            cur = self.blocks[&cur].block.header.prev;
        }
        (reverted, applied)
    }

    /// Verifies the integrity of the whole best chain: every hash pointer
    /// links, every block is well-formed (and meets its target when PoW
    /// checking is on).
    pub fn verify_integrity(&self) -> bool {
        let chain = self.best_chain();
        for pair in chain.windows(2) {
            let parent = &self.blocks[&pair[0]];
            let child = &self.blocks[&pair[1]];
            if child.block.header.prev != pair[0] {
                return false;
            }
            if !child.block.is_well_formed() {
                return false;
            }
            if self.check_pow && !verify_pow(&child.block) {
                return false;
            }
            let _ = parent;
        }
        true
    }

    /// The tip the naive "longest chain" rule would pick (max height, ties
    /// to the current tip) — used by the fork-choice ablation to show where
    /// it diverges from most-work.
    pub fn best_by_length(&self) -> BlockHash {
        let mut best = self.tip;
        let mut best_height = self.blocks[&self.tip].height;
        for (h, s) in &self.blocks {
            if s.height > best_height {
                best = *h;
                best_height = s.height;
            }
        }
        best
    }

    /// Account balance implied by the best chain.
    pub fn balance(&self, account: u32) -> i128 {
        let mut bal: i128 = 0;
        for h in self.best_chain() {
            for tx in &self.blocks[&h].block.txs {
                if tx.to == account {
                    bal += i128::from(tx.amount);
                }
                if tx.from == account && !tx.is_coinbase() {
                    bal -= i128::from(tx.amount) + i128::from(tx.fee);
                }
            }
        }
        bal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pow::mine_block;

    fn mine_on(
        chain: &Blockchain,
        parent: BlockHash,
        height: u64,
        miner: u32,
        txs: Vec<Transaction>,
        ts: u32,
    ) -> Block {
        mine_block(
            &MiningParams::trivial(),
            parent,
            height,
            miner,
            txs,
            chain.blocks[&parent].block.header.bits,
            ts,
        )
        .block
    }

    fn extend(chain: &mut Blockchain, n: u64, miner: u32) -> Vec<BlockHash> {
        let mut out = Vec::new();
        for _ in 0..n {
            let parent = chain.tip();
            let h = chain.height() + 1;
            let block = mine_on(
                chain,
                parent,
                h,
                miner,
                vec![Transaction::transfer(h * 100, 1, 2, h, 0)],
                h as u32 * 600,
            );
            let hash = block.hash();
            assert_eq!(chain.add_block(block), AddOutcome::ExtendedBest);
            out.push(hash);
        }
        out
    }

    #[test]
    fn linear_growth() {
        let mut chain = Blockchain::new(MiningParams::trivial());
        extend(&mut chain, 5, 1);
        assert_eq!(chain.height(), 5);
        assert!(chain.verify_integrity());
        assert_eq!(chain.best_chain().len(), 6);
    }

    #[test]
    fn duplicate_and_invalid_rejected() {
        let mut chain = Blockchain::new(MiningParams::trivial());
        let parent = chain.tip();
        let block = mine_on(&chain, parent, 1, 1, vec![], 600);
        assert_eq!(chain.add_block(block.clone()), AddOutcome::ExtendedBest);
        assert_eq!(chain.add_block(block.clone()), AddOutcome::Duplicate);
        // Tampered block: PoW no longer valid.
        let mut bad = mine_on(&chain, chain.tip(), 2, 1, vec![], 1200);
        bad.header.nonce = bad.header.nonce.wrapping_add(1);
        assert_eq!(chain.add_block(bad), AddOutcome::Invalid);
    }

    #[test]
    fn fork_then_reorg_aborts_and_resubmits() {
        let mut chain = Blockchain::new(MiningParams::trivial());
        let base = extend(&mut chain, 2, 1);
        let fork_point = base[0]; // height 1

        // A competing branch from height 1 with different transactions.
        let stranded_tx = chain
            .block(&base[1])
            .unwrap()
            .txs
            .iter()
            .find(|t| !t.is_coinbase())
            .cloned()
            .unwrap();
        let b2 = mine_on(
            &chain,
            fork_point,
            2,
            2,
            vec![Transaction::transfer(9_001, 3, 4, 42, 1)],
            1_300,
        );
        let b2h = b2.hash();
        assert_eq!(chain.add_block(b2), AddOutcome::SideChain);
        assert_eq!(chain.height(), 2, "side chain doesn't displace the tip");

        // Extend the side branch past the best chain: reorg.
        let b3 = mine_on(&chain, b2h, 3, 2, vec![], 1_900);
        match chain.add_block(b3) {
            AddOutcome::Reorged { reverted, resubmit } => {
                assert_eq!(reverted, 1, "one block reverted");
                assert!(
                    resubmit.contains(&stranded_tx),
                    "stranded tx must be resubmitted: {resubmit:?}"
                );
                assert!(
                    resubmit.iter().all(|t| !t.is_coinbase()),
                    "coinbases are never resubmitted"
                );
            }
            other => panic!("expected reorg, got {other:?}"),
        }
        assert_eq!(chain.height(), 3);
        assert!(chain.verify_integrity());
    }

    #[test]
    fn reorg_does_not_resubmit_txs_present_in_winner() {
        let mut chain = Blockchain::new(MiningParams::trivial());
        let tx = Transaction::transfer(77, 5, 6, 10, 0);
        // Best branch contains tx at height 1.
        let a1 = mine_on(&chain, chain.tip(), 1, 1, vec![tx.clone()], 600);
        let a1h = a1.hash();
        chain.add_block(a1);
        // Competing branch also contains tx, and grows longer.
        let b1 = mine_on(&chain, chain.genesis(), 1, 2, vec![tx.clone()], 650);
        let b1h = b1.hash();
        chain.add_block(b1);
        let b2 = mine_on(&chain, b1h, 2, 2, vec![], 1_250);
        match chain.add_block(b2) {
            AddOutcome::Reorged { resubmit, .. } => {
                assert!(
                    resubmit.is_empty(),
                    "tx present in both branches: {resubmit:?}"
                );
            }
            other => panic!("expected reorg, got {other:?}"),
        }
        let _ = a1h;
    }

    #[test]
    fn orphans_are_buffered_until_parent_arrives() {
        let mut chain = Blockchain::new(MiningParams::trivial());
        let p = MiningParams::trivial();
        let b1 = mine_block(&p, chain.tip(), 1, 1, vec![], p.initial_bits, 600).block;
        let b2 = mine_block(&p, b1.hash(), 2, 1, vec![], p.initial_bits, 1200).block;
        assert_eq!(chain.add_block(b2.clone()), AddOutcome::Orphaned);
        assert_eq!(chain.height(), 0);
        assert_eq!(chain.add_block(b1), AddOutcome::ExtendedBest);
        // b2 was adopted automatically.
        assert_eq!(chain.height(), 2);
        assert_eq!(chain.tip(), b2.hash());
    }

    #[test]
    fn miner_balances_accumulate_rewards() {
        let mut chain = Blockchain::new(MiningParams::trivial());
        extend(&mut chain, 3, 7);
        // Trivial params: reward 50, no halving inside 3 blocks.
        assert_eq!(chain.balance(7), 150);
        // Sender 1 paid 1+2+3 plus no fees.
        assert_eq!(chain.balance(2), 1 + 2 + 3);
    }

    #[test]
    fn fork_choice_ablation_length_vs_work() {
        // Branch A: three blocks at the easy target. Branch B: two blocks
        // at a 4×-harder target (more total work). "Longest chain" picks A;
        // most-work (correct across difficulty changes) picks B.
        use crate::pow::{block_work, compact_to_target, target_to_compact};
        let p = MiningParams::trivial();
        let mut chain = Blockchain::new(p);
        let easy = p.initial_bits;
        let hard = target_to_compact(compact_to_target(easy) / 4);
        assert!(block_work(hard) > 2 * block_work(easy));

        // Branch A (easy × 3).
        let mut tip_a = chain.genesis();
        for h in 1..=3u64 {
            let b = mine_block(&p, tip_a, h, 1, vec![], easy, h as u32 * 600).block;
            tip_a = b.hash();
            chain.add_block(b);
        }
        assert_eq!(chain.tip(), tip_a);

        // Branch B (hard × 2) from genesis.
        let mut tip_b = chain.genesis();
        for h in 1..=2u64 {
            let b = mine_block(&p, tip_b, h, 2, vec![], hard, h as u32 * 600 + 1).block;
            tip_b = b.hash();
            chain.add_block(b);
        }

        // Most-work rule reorged to the shorter-but-heavier branch…
        assert_eq!(chain.tip(), tip_b, "most-work picks the heavy branch");
        assert_eq!(chain.height(), 2);
        // …while the naive longest-chain rule would have kept branch A.
        assert_eq!(chain.best_by_length(), tip_a);
    }

    #[test]
    fn retarget_applies_at_interval_boundaries() {
        // trivial(): retarget every 4 blocks; timestamps make mining look
        // 4× too fast, so difficulty must rise at the boundary.
        let mut chain = Blockchain::new(MiningParams::trivial());
        for h in 1..=3u64 {
            let parent = chain.tip();
            // Blocks 150s apart instead of 600s.
            let block = mine_on(&chain, parent, h, 1, vec![], (h * 150) as u32);
            chain.add_block(block);
        }
        let before = chain.block(&chain.tip()).unwrap().header.bits;
        let next = chain.next_bits();
        assert_ne!(next, before, "height 4 is a retarget boundary");
        use crate::pow::compact_to_target;
        assert!(
            compact_to_target(next) < compact_to_target(before),
            "fast blocks ⇒ harder target"
        );
    }
}
