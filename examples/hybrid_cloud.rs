//! Hybrid-cloud consensus: SeeMoRe's three modes and the UpRight fault
//! model — `m` malicious public-cloud nodes and `c` crash-prone private
//! nodes on `3m + 2c + 1` machines.
//!
//! ```sh
//! cargo run --example hybrid_cloud
//! ```

use forty::bft::seemore::{Mode, SeeMoReConfig, SmCluster};
use forty::bft::upright::UpRightConfig;
use forty::simnet::{DropAll, NetConfig, NodeId, Time};

fn main() {
    let (m, c) = (1usize, 1usize);
    println!("Hybrid cloud: m = {m} malicious (public), c = {c} crash (private)");
    let u = UpRightConfig::new(m, c);
    println!(
        "fault-model arithmetic: network {}  quorum {}  intersection {}  (execution tier {})",
        u.agreement_nodes(),
        u.quorum(),
        u.intersection(),
        u.execution_nodes()
    );
    println!();
    println!(
        "{:<28} {:>7} {:>7} {:>10} {:>12}",
        "mode", "phases", "quorum", "committed", "messages"
    );

    for (mode, label) in [
        (Mode::One, "1: trusted, centralized"),
        (Mode::Two, "2: trusted, decentralized"),
        (Mode::Three, "3: untrusted, decentralized"),
    ] {
        let cfg = SeeMoReConfig { m, c, mode };
        let mut cluster = SmCluster::new(cfg, 1, 12, NetConfig::lan(), 3);

        // Stress it: crash one private node and mute one public node.
        cluster.sim.crash_at(NodeId(1), Time::ZERO);
        if mode != Mode::Three {
            // (In mode 3 the muted node would sometimes be the primary —
            // the full protocol handles that with a view change, which this
            // engine models only for the primary-in-private modes.)
            cluster.sim.set_filter(NodeId(5), Box::new(DropAll));
        }

        let ok = cluster.run(Time::from_secs(30));
        println!(
            "{:<28} {:>7} {:>7} {:>10} {:>12}{}",
            label,
            cfg.phases(),
            cfg.quorum(),
            cluster.total_completed(),
            cluster.sim.metrics().sent,
            if ok { "" } else { "  (incomplete)" }
        );
    }

    println!();
    println!("Mode 1 keeps traffic linear but loads the private cloud;");
    println!("modes 2–3 move coordination to public proxies at O(n²) cost,");
    println!("and an untrusted primary (mode 3) pays one extra validation phase.");
}
