//! Fault plans: what the nemesis does to a run, when, and to whom.
//!
//! A [`FaultPlan`] is a list of timed [`FaultAction`]s generated from a
//! protocol's declared [`FaultSpec`] (its taxonomy fault model projected
//! onto simulator capabilities) and a seed. Generation is a pure function of
//! `(spec, seed)` — together with the deterministic simulator this makes
//! every trial replayable from two integers — and plans serialize to JSON so
//! a violating schedule can be stored, shipped, and re-run bit-for-bit.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use serde_json::Value;

/// Domain-separation tag mixed into the plan-generation RNG seed so plan
/// randomness is independent of the simulator's own per-seed streams.
const PLAN_SALT: u64 = 0x006e_656d_6573_6973; // "nemesis"

/// One timed fault. All times are simulated microseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash-stop `node` at `at` (state is preserved; timers die).
    Crash {
        /// Target node.
        node: u32,
        /// When.
        at: u64,
    },
    /// Restart a crashed `node` at `at` (crash-recovery model).
    Restart {
        /// Target node.
        node: u32,
        /// When.
        at: u64,
    },
    /// Split the network: `group` on one side, everyone else on the other.
    Partition {
        /// When.
        at: u64,
        /// One side of the split.
        group: Vec<u32>,
    },
    /// Remove any active partition.
    Heal {
        /// When.
        at: u64,
    },
    /// Byzantine omission: drop everything `node` sends during the window.
    Mute {
        /// Target node.
        node: u32,
        /// Window start.
        from: u64,
        /// Window end.
        until: u64,
    },
    /// Byzantine equivocation: `node` tells different peers different
    /// things during the window (the concrete lie is protocol-specific).
    Equivocate {
        /// Target node.
        node: u32,
        /// Window start.
        from: u64,
        /// Window end.
        until: u64,
    },
    /// Raise the random message-loss probability during the window.
    LossBurst {
        /// Window start.
        from: u64,
        /// Window end.
        until: u64,
        /// Loss probability in thousandths (0–1000).
        permille: u32,
    },
    /// Raise the message-duplication probability during the window: a
    /// duplicated message is delivered twice, each copy on its own delay.
    DuplicateBurst {
        /// Window start.
        from: u64,
        /// Window end.
        until: u64,
        /// Duplication probability in thousandths (0–1000).
        permille: u32,
    },
}

impl FaultAction {
    /// The time the action first takes effect (used for display ordering).
    pub fn at(&self) -> u64 {
        match self {
            FaultAction::Crash { at, .. }
            | FaultAction::Restart { at, .. }
            | FaultAction::Partition { at, .. }
            | FaultAction::Heal { at } => *at,
            FaultAction::Mute { from, .. }
            | FaultAction::Equivocate { from, .. }
            | FaultAction::LossBurst { from, .. }
            | FaultAction::DuplicateBurst { from, .. } => *from,
        }
    }

    fn to_value(&self) -> Value {
        match self {
            FaultAction::Crash { node, at } => {
                serde_json::json!({"kind": "crash", "node": *node, "at": *at})
            }
            FaultAction::Restart { node, at } => {
                serde_json::json!({"kind": "restart", "node": *node, "at": *at})
            }
            FaultAction::Partition { at, group } => serde_json::json!({
                "kind": "partition",
                "at": *at,
                "group": group.clone(),
            }),
            FaultAction::Heal { at } => serde_json::json!({"kind": "heal", "at": *at}),
            FaultAction::Mute { node, from, until } => serde_json::json!({
                "kind": "mute", "node": *node, "from": *from, "until": *until,
            }),
            FaultAction::Equivocate { node, from, until } => serde_json::json!({
                "kind": "equivocate", "node": *node, "from": *from, "until": *until,
            }),
            FaultAction::LossBurst {
                from,
                until,
                permille,
            } => serde_json::json!({
                "kind": "loss", "from": *from, "until": *until, "permille": *permille,
            }),
            FaultAction::DuplicateBurst {
                from,
                until,
                permille,
            } => serde_json::json!({
                "kind": "duplicate", "from": *from, "until": *until, "permille": *permille,
            }),
        }
    }

    fn from_value(v: &Value) -> Result<FaultAction, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("action missing kind")?;
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{kind} action missing {name}"))
        };
        match kind {
            "crash" => Ok(FaultAction::Crash {
                node: field("node")? as u32,
                at: field("at")?,
            }),
            "restart" => Ok(FaultAction::Restart {
                node: field("node")? as u32,
                at: field("at")?,
            }),
            "partition" => {
                let group = v
                    .get("group")
                    .and_then(Value::as_array)
                    .ok_or("partition missing group")?
                    .iter()
                    .map(|g| g.as_u64().map(|n| n as u32).ok_or("bad group member"))
                    .collect::<Result<Vec<u32>, _>>()?;
                Ok(FaultAction::Partition {
                    at: field("at")?,
                    group,
                })
            }
            "heal" => Ok(FaultAction::Heal { at: field("at")? }),
            "mute" => Ok(FaultAction::Mute {
                node: field("node")? as u32,
                from: field("from")?,
                until: field("until")?,
            }),
            "equivocate" => Ok(FaultAction::Equivocate {
                node: field("node")? as u32,
                from: field("from")?,
                until: field("until")?,
            }),
            "loss" => Ok(FaultAction::LossBurst {
                from: field("from")?,
                until: field("until")?,
                permille: field("permille")? as u32,
            }),
            "duplicate" => Ok(FaultAction::DuplicateBurst {
                from: field("from")?,
                until: field("until")?,
                permille: field("permille")? as u32,
            }),
            other => Err(format!("unknown action kind {other:?}")),
        }
    }
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Crash { node, at } => write!(f, "t={at}µs crash n{node}"),
            FaultAction::Restart { node, at } => write!(f, "t={at}µs restart n{node}"),
            FaultAction::Partition { at, group } => {
                write!(f, "t={at}µs partition {group:?} | rest")
            }
            FaultAction::Heal { at } => write!(f, "t={at}µs heal"),
            FaultAction::Mute { node, from, until } => {
                write!(f, "t={from}–{until}µs mute n{node}")
            }
            FaultAction::Equivocate { node, from, until } => {
                write!(f, "t={from}–{until}µs equivocate n{node}")
            }
            FaultAction::LossBurst {
                from,
                until,
                permille,
            } => write!(f, "t={from}–{until}µs loss {permille}‰"),
            FaultAction::DuplicateBurst {
                from,
                until,
                permille,
            } => write!(f, "t={from}–{until}µs duplicate {permille}‰"),
        }
    }
}

/// A full nemesis schedule for one trial.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Actions, sorted by effect time.
    pub actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// Serializes the plan as a JSON array value.
    pub fn to_value(&self) -> Value {
        Value::Array(self.actions.iter().map(FaultAction::to_value).collect())
    }

    /// Deserializes a plan from the JSON array produced by
    /// [`FaultPlan::to_value`].
    pub fn from_value(v: &Value) -> Result<FaultPlan, String> {
        let actions = v
            .as_array()
            .ok_or("plan is not an array")?
            .iter()
            .map(FaultAction::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan { actions })
    }

    /// One-line rendering for verdict tables and logs.
    pub fn summary(&self) -> String {
        if self.actions.is_empty() {
            return "(no faults)".to_string();
        }
        self.actions
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// What a protocol declares the nemesis may do to it — the simulator-level
/// projection of the taxonomy card's failure model ("crash" vs "Byzantine")
/// and network assumptions.
///
/// Safety checks must pass for *every* plan drawn from the declared spec;
/// liveness is explicitly out of scope (a trial where nothing completes but
/// nothing contradicts is a pass).
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Processes eligible for faults (node ids `0..nodes`; clients above
    /// this range are never touched).
    pub nodes: u32,
    /// Max distinct nodes that may crash during a trial. For protocols
    /// whose *safety* survives any number of crash-stop faults (Paxos,
    /// Raft, PBFT) this equals `nodes`; protocols analysed under a bounded
    /// crash model (Ben-Or's `2f < n`) declare the bound.
    pub max_crash_nodes: u32,
    /// Whether crashed nodes may restart (crash-recovery model).
    pub allow_restart: bool,
    /// Whether network partitions are in-model.
    pub allow_partition: bool,
    /// Whether random message loss is in-model.
    pub allow_loss: bool,
    /// Max distinct Byzantine nodes (0 for crash-fault protocols).
    pub max_byzantine: u32,
    /// Whether Byzantine nodes may equivocate (vs omission only).
    pub allow_equivocation: bool,
    /// Whether the network may deliver a message twice. Off for protocols
    /// that count messages rather than senders (Ben-Or), for crash-stop
    /// menus, and for targets without a live duplicate setter.
    pub allow_duplicate: bool,
    /// Trial horizon in simulated µs.
    pub horizon: u64,
}

/// Draws a random plan legal under `spec`. Pure function of `(spec, seed)`.
pub fn generate(spec: &FaultSpec, seed: u64) -> FaultPlan {
    let mut rng = ChaCha20Rng::seed_from_u64(seed ^ PLAN_SALT);
    let h = spec.horizon.max(1000);
    let mut actions: Vec<FaultAction> = Vec::new();

    // Crash / restart faults: pick the crashable subset first, then decide
    // per node — so the count of distinct crashed nodes respects the bound.
    let crashable = sample_nodes(&mut rng, spec.nodes, spec.max_crash_nodes);
    for node in crashable {
        if !rng.gen_bool(0.45) {
            continue;
        }
        let at = rng.gen_range(0..h / 2);
        actions.push(FaultAction::Crash { node, at });
        if spec.allow_restart && rng.gen_bool(0.6) {
            let back = at + rng.gen_range(h / 20..h / 3).max(1);
            if back < h {
                actions.push(FaultAction::Restart { node, at: back });
            }
        }
    }

    // One partition episode, usually healed.
    if spec.allow_partition && spec.nodes >= 2 && rng.gen_bool(0.5) {
        let at = rng.gen_range(0..h / 2);
        let size = rng.gen_range(1..spec.nodes);
        let group = sample_nodes(&mut rng, spec.nodes, size);
        actions.push(FaultAction::Partition { at, group });
        if rng.gen_bool(0.75) {
            let heal = at + rng.gen_range(h / 20..h / 2).max(1);
            if heal < h {
                actions.push(FaultAction::Heal { at: heal });
            }
        }
    }

    // One loss burst.
    if spec.allow_loss && rng.gen_bool(0.5) {
        let from = rng.gen_range(0..h * 2 / 3);
        let until = (from + rng.gen_range(h / 50..h / 4).max(1)).min(h);
        let permille = rng.gen_range(100..=1000);
        actions.push(FaultAction::LossBurst {
            from,
            until,
            permille,
        });
    }

    // Byzantine windows, one per faulty node, within the declared bound.
    let byzantine = sample_nodes(&mut rng, spec.nodes, spec.max_byzantine);
    for node in byzantine {
        if !rng.gen_bool(0.7) {
            continue;
        }
        let from = rng.gen_range(0..h / 2);
        let until = (from + rng.gen_range(h / 20..h / 2).max(1)).min(h);
        if spec.allow_equivocation && rng.gen_bool(0.5) {
            actions.push(FaultAction::Equivocate { node, from, until });
        } else {
            actions.push(FaultAction::Mute { node, from, until });
        }
    }

    // One duplicate burst, drawn last so that every earlier draw — and so
    // every other action of the plan — is the same with the flag on or off.
    if spec.allow_duplicate && rng.gen_bool(0.5) {
        let from = rng.gen_range(0..h * 2 / 3);
        let until = (from + rng.gen_range(h / 50..h / 4).max(1)).min(h);
        let permille = rng.gen_range(100..=1000);
        actions.push(FaultAction::DuplicateBurst {
            from,
            until,
            permille,
        });
    }

    actions.sort_by_key(|a| a.at());
    FaultPlan { actions }
}

/// Picks up to `k` distinct node ids from `0..n`, uniformly (partial
/// Fisher–Yates).
fn sample_nodes(rng: &mut ChaCha20Rng, n: u32, k: u32) -> Vec<u32> {
    let mut pool: Vec<u32> = (0..n).collect();
    let k = (k as usize).min(pool.len());
    for i in 0..k {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the summaries of every registry spec's plans for seeds
    /// 0..200, as the generator drew them before duplicate bursts.
    const TODAYS_PLANS: u64 = 0xd358_4866_e45b_ca10;

    fn crash_spec() -> FaultSpec {
        FaultSpec {
            nodes: 5,
            max_crash_nodes: 5,
            allow_restart: true,
            allow_partition: true,
            allow_loss: true,
            max_byzantine: 0,
            allow_equivocation: false,
            allow_duplicate: false,
            horizon: 1_000_000,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = crash_spec();
        assert_eq!(generate(&spec, 7), generate(&spec, 7));
        // Some nearby seed gives a different plan.
        assert!((0..20).any(|s| generate(&spec, s) != generate(&spec, 7)));
    }

    #[test]
    fn plans_respect_the_spec() {
        let mut byz_spec = crash_spec();
        byz_spec.max_byzantine = 1;
        byz_spec.allow_equivocation = true;
        let dup_spec = FaultSpec {
            allow_duplicate: true,
            ..crash_spec()
        };
        for seed in 0..200 {
            for (spec, byz_allowed) in [(crash_spec(), false), (byz_spec, true), (dup_spec, false)]
            {
                let plan = generate(&spec, seed);
                let mut crashed = std::collections::BTreeSet::new();
                let mut byz = std::collections::BTreeSet::new();
                for a in &plan.actions {
                    match a {
                        FaultAction::Crash { node, at } => {
                            assert!(*node < spec.nodes);
                            assert!(*at < spec.horizon);
                            crashed.insert(*node);
                        }
                        FaultAction::Restart { node, at } => {
                            assert!(spec.allow_restart);
                            // The matching crash precedes it.
                            assert!(plan.actions.iter().any(|b| matches!(
                                b,
                                FaultAction::Crash { node: n2, at: a2 } if n2 == node && a2 < at
                            )));
                        }
                        FaultAction::Partition { group, .. } => {
                            assert!(spec.allow_partition);
                            assert!(!group.is_empty());
                            assert!(group.iter().all(|n| *n < spec.nodes));
                            assert!((group.len() as u32) < spec.nodes);
                        }
                        FaultAction::Heal { .. } => assert!(spec.allow_partition),
                        FaultAction::LossBurst {
                            from,
                            until,
                            permille,
                        } => {
                            assert!(spec.allow_loss);
                            assert!(from < until);
                            assert!(*permille <= 1000);
                        }
                        FaultAction::DuplicateBurst {
                            from,
                            until,
                            permille,
                        } => {
                            assert!(spec.allow_duplicate);
                            assert!(from < until);
                            assert!(*permille <= 1000);
                        }
                        FaultAction::Mute { node, from, until }
                        | FaultAction::Equivocate { node, from, until } => {
                            assert!(byz_allowed, "byzantine action under crash spec");
                            assert!(*node < spec.nodes);
                            assert!(from < until);
                            byz.insert(*node);
                        }
                    }
                }
                assert!(crashed.len() as u32 <= spec.max_crash_nodes);
                assert!(byz.len() as u32 <= spec.max_byzantine);
                // Sorted by effect time.
                assert!(plan.actions.windows(2).all(|w| w[0].at() <= w[1].at()));
            }
        }
    }

    #[test]
    fn plan_json_round_trips() {
        let spec = FaultSpec {
            max_byzantine: 2,
            allow_equivocation: true,
            allow_duplicate: true,
            ..crash_spec()
        };
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..50 {
            let plan = generate(&spec, seed);
            let text = serde_json::to_string(&plan.to_value()).unwrap();
            let back = FaultPlan::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back, plan, "seed {seed}");
            kinds.extend(plan.actions.iter().map(std::mem::discriminant));
        }
        assert_eq!(kinds.len(), 8, "some action kind never round-tripped");
    }

    #[test]
    fn duplicate_bursts_only_append_to_todays_plans() {
        // Every registry spec, over seeds 0..200: with the flag off the plan
        // is the one the generator drew before duplication existed (pinned
        // by a digest of every plan's summary, recorded before the
        // `DuplicateBurst` draw was added); with it on, the plan differs
        // only by its duplicate bursts.
        let mut specs: Vec<FaultSpec> = crate::targets().iter().map(|t| t.fault_spec()).collect();
        specs.push(crate::injected_bug_target().fault_spec());
        specs.push(crate::store_injected_bug_target().fault_spec());
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
        let mut bursts = 0;
        for spec in specs {
            let off = FaultSpec {
                allow_duplicate: false,
                ..spec
            };
            let on = FaultSpec {
                allow_duplicate: true,
                ..spec
            };
            for seed in 0..200 {
                let today = generate(&off, seed);
                for byte in today.summary().bytes().chain([b'\n']) {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
                let mut with = generate(&on, seed);
                let before = with.actions.len();
                with.actions
                    .retain(|a| !matches!(a, FaultAction::DuplicateBurst { .. }));
                bursts += before - with.actions.len();
                assert_eq!(with, today, "seed {seed}");
            }
        }
        assert_eq!(digest, TODAYS_PLANS, "a flag-off plan moved");
        assert!(bursts > 0, "the flag never drew a duplicate burst");
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            r#"{"kind": "crash"}"#,
            r#"[{"kind": "warp", "at": 3}]"#,
            r#"[{"kind": "crash", "at": 3}]"#,
            r#"[{"kind": "partition", "at": 3}]"#,
        ] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(FaultPlan::from_value(&v).is_err(), "accepted {bad}");
        }
    }
}
