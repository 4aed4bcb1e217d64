//! Property-based tests for subjective graphs and hop-bounded maxflow.

use proptest::prelude::*;
use rvs_bartercast::maxflow::max_flow_bounded;
use rvs_bartercast::{BarterCast, BarterCastConfig, Record, SubjectiveGraph};
use rvs_bittorrent::TransferLedger;
use rvs_sim::NodeId;

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..8, 0u32..8, 1u64..10_000), 0..40)
}

/// Reference `own_records`: every nonzero edge of `i`'s graph incident
/// to `i`, found by a whole-graph scan, largest first, truncated.
fn own_records_by_scan(bc: &BarterCast, i: NodeId) -> Vec<Record> {
    let mut recs: Vec<Record> = bc
        .graph(i)
        .edges()
        .filter(|&(f, t, _)| f == i || t == i)
        .map(|(from, to, kib)| Record { from, to, kib })
        .collect();
    recs.sort_by_key(|r| (std::cmp::Reverse(r.kib), r.from, r.to));
    recs.truncate(bc.config().max_records_per_exchange);
    recs
}

fn graph_of(edges: &[(u32, u32, u64)]) -> SubjectiveGraph {
    let mut g = SubjectiveGraph::new();
    for &(f, t, w) in edges {
        if f != t {
            g.insert_report(NodeId(f), NodeId(f), NodeId(t), w);
        }
    }
    g
}

proptest! {
    /// Flow is bounded by source out-capacity and sink in-capacity, and is
    /// monotone in the hop budget.
    #[test]
    fn flow_bounds_and_hop_monotonicity(edges in arb_edges(), s in 0u32..8, d in 0u32..8) {
        let g = graph_of(&edges);
        let src = NodeId(s);
        let dst = NodeId(d);
        let out_cap: u64 = g.out_edges(src).iter().map(|&(_, w)| w).sum();
        let in_cap: u64 = g
            .edges()
            .filter(|&(_, t, _)| t == dst)
            .map(|(_, _, w)| w)
            .sum();
        let mut prev = 0u64;
        for hops in 0..5 {
            let f = max_flow_bounded(&g, src, dst, hops);
            prop_assert!(f >= prev, "flow must grow with hop budget");
            prop_assert!(f <= out_cap);
            prop_assert!(f <= in_cap);
            prev = f;
        }
        prop_assert_eq!(max_flow_bounded(&g, src, src, 4), 0);
    }

    /// Adding an edge never decreases any flow (monotonicity in capacity).
    #[test]
    fn flow_monotone_in_edges(
        edges in arb_edges(),
        extra in (0u32..8, 0u32..8, 1u64..10_000),
        s in 0u32..8,
        d in 0u32..8,
    ) {
        let g1 = graph_of(&edges);
        let mut with_extra = edges.clone();
        with_extra.push(extra);
        let g2 = graph_of(&with_extra);
        for hops in [2usize, 3] {
            prop_assert!(
                max_flow_bounded(&g2, NodeId(s), NodeId(d), hops)
                    >= max_flow_bounded(&g1, NodeId(s), NodeId(d), hops)
            );
        }
    }

    /// Honest record exchange only ever adds knowledge, and contribution
    /// estimates never exceed ground truth when everyone is honest.
    #[test]
    fn honest_exchanges_stay_within_ground_truth(
        transfers in prop::collection::vec((0u32..6, 0u32..6, 1u64..5_000), 0..30),
        meetings in prop::collection::vec((0u32..6, 0u32..6), 0..20),
    ) {
        let mut ledger = TransferLedger::new();
        for &(f, t, k) in &transfers {
            ledger.credit(NodeId(f), NodeId(t), k);
        }
        let mut bc = BarterCast::new(6, BarterCastConfig::default());
        for i in 0..6 {
            bc.sync_own_records(NodeId(i), &ledger);
        }
        for &(a, b) in &meetings {
            bc.exchange(NodeId(a), NodeId(b));
        }
        // Subjective edges never exceed the ledger's ground truth.
        for i in 0..6u32 {
            for (f, t, w) in bc.graph(NodeId(i)).edges() {
                prop_assert!(w <= ledger.uploaded_kib(f, t),
                    "node {i} believes {f}->{t} = {w} > truth");
            }
        }
        // Contributions are bounded by the contributor's total uploads.
        for i in 0..6u32 {
            for j in 0..6u32 {
                if i == j { continue; }
                let f = bc.contribution_kib(NodeId(i), NodeId(j));
                prop_assert!(f <= ledger.total_uploaded_kib(NodeId(j)));
            }
        }
    }

    /// Differential test of the incremental contribution cache: a cached
    /// `BarterCast` and a cache-disabled twin fed byte-identical interleaved
    /// mutations (ledger credits, own-record syncs, exchanges, injected
    /// reports) must answer every contribution and experience query
    /// byte-identically, at every point of the interleaving. This is the
    /// cache analogue of `closed_form_matches_edmonds_karp_on_random_graphs`:
    /// the uncached twin is the executable specification.
    #[test]
    fn cached_and_uncached_twins_agree_on_everything(
        ops in prop::collection::vec((0u8..6, 0u32..6, 0u32..6, 0u32..6, 1u64..20_000), 1..80),
        hops in 1usize..4,
    ) {
        use rvs_bartercast::{Record, ThresholdExperience};
        let cfg = BarterCastConfig {
            max_hops: hops,
            ..BarterCastConfig::default()
        };
        let mut cached = BarterCast::new(6, cfg);
        let mut plain = BarterCast::new(6, cfg.without_cache());
        let mut ledger = TransferLedger::new();
        let e = ThresholdExperience::new(1.0);
        for &(op, a, b, c, kib) in &ops {
            let (x, y, z) = (NodeId(a), NodeId(b), NodeId(c));
            match op {
                0 => ledger.credit(x, y, kib),
                1 => {
                    cached.sync_own_records(x, &ledger);
                    plain.sync_own_records(x, &ledger);
                }
                2 => {
                    cached.exchange(x, y);
                    plain.exchange(x, y);
                }
                3 => {
                    // Possibly fabricated record from reporter `y`.
                    let rec = Record { from: y, to: z, kib };
                    let lhs = cached.inject_report(x, y, rec);
                    let rhs = plain.inject_report(x, y, rec);
                    prop_assert_eq!(lhs, rhs);
                }
                4 => {
                    prop_assert_eq!(
                        cached.contribution_kib(x, y),
                        plain.contribution_kib(x, y),
                        "f_{{{}->{}}} diverged", y, x
                    );
                    prop_assert_eq!(
                        cached.contribution_mib(x, y).to_bits(),
                        plain.contribution_mib(x, y).to_bits(),
                        "MiB conversion diverged for ({}, {})", x, y
                    );
                }
                _ => {
                    prop_assert_eq!(
                        e.is_experienced(&cached, x, y),
                        e.is_experienced(&plain, x, y)
                    );
                }
            }
        }
        // Closing sweep: every pair, single and batched, plus the
        // cache-free oracle.
        let peers: Vec<NodeId> = (0..6).map(NodeId).collect();
        for &i in &peers {
            let batch = cached.contributions_kib(i, &peers);
            for (k, &j) in peers.iter().enumerate() {
                let reference = plain.contribution_kib(i, j);
                prop_assert_eq!(batch[k], reference);
                prop_assert_eq!(cached.contribution_kib(i, j), reference);
                prop_assert_eq!(cached.contribution_kib_uncached(i, j), reference);
            }
            prop_assert_eq!(cached.graph(i), plain.graph(i), "graph {} diverged", i);
        }
    }

    /// The indexed `own_records` equals the whole-graph scan for every
    /// node at every point of an arbitrary interleaving of syncs, record
    /// deliveries (hearsay, self-loop and zero-KiB records included) and
    /// injected reports — and again after a checkpoint round trip, which
    /// rebuilds the index from the restored graphs.
    #[test]
    fn indexed_own_records_match_the_scan(
        ops in prop::collection::vec(
            (0u8..4, 0u32..6, 0u32..6, 0u32..6, 0u32..6, prop_oneof![Just(0u64), 1u64..5_000]),
            1..80,
        ),
        budget in 1usize..8,
    ) {
        let n = 6;
        let cfg = BarterCastConfig {
            max_records_per_exchange: budget,
            ..BarterCastConfig::default()
        };
        let mut bc = BarterCast::new(n, cfg);
        let mut ledger = TransferLedger::new();
        for &(op, a, b, c, d, kib) in &ops {
            let (w, x, y, z) = (NodeId(a), NodeId(b), NodeId(c), NodeId(d));
            match op {
                0 => ledger.credit(w, x, kib),
                1 => bc.sync_own_records(w, &ledger),
                2 => {
                    // Reporter `x` hands `w` one record about `y -> z`:
                    // its own edge, hearsay or a self-loop alike.
                    let recs = [Record { from: y, to: z, kib }, Record { from: x, to: w, kib }];
                    bc.deliver_records(w, x, &recs);
                }
                _ => {
                    bc.inject_report(w, x, Record { from: y, to: z, kib });
                }
            }
            for i in (0..n).map(NodeId::from_index) {
                prop_assert_eq!(bc.own_records(i), own_records_by_scan(&bc, i));
            }
        }
        let bytes = rvs_checkpoint::to_bytes(&bc);
        let restored: BarterCast = rvs_checkpoint::from_bytes(&bytes).expect("round trip");
        for i in (0..n).map(NodeId::from_index) {
            prop_assert_eq!(restored.own_records(i), own_records_by_scan(&bc, i));
        }
        // The rebuilt index keeps tracking new reports.
        let mut resumed = restored;
        for i in (0..n).map(NodeId::from_index) {
            bc.sync_own_records(i, &ledger);
            resumed.sync_own_records(i, &ledger);
            prop_assert_eq!(resumed.graph(i), bc.graph(i));
            prop_assert_eq!(resumed.own_records(i), own_records_by_scan(&resumed, i));
        }
    }

    /// More meetings never reduce a contribution estimate (knowledge is
    /// monotone for honest populations).
    #[test]
    fn knowledge_is_monotone(
        transfers in prop::collection::vec((0u32..5, 0u32..5, 1u64..5_000), 1..20),
        meetings in prop::collection::vec((0u32..5, 0u32..5), 1..15),
    ) {
        let mut ledger = TransferLedger::new();
        for &(f, t, k) in &transfers {
            ledger.credit(NodeId(f), NodeId(t), k);
        }
        let mut bc = BarterCast::new(5, BarterCastConfig::default());
        for i in 0..5 {
            bc.sync_own_records(NodeId(i), &ledger);
        }
        let before = bc.contribution_kib(NodeId(0), NodeId(1));
        for &(a, b) in &meetings {
            bc.exchange(NodeId(a), NodeId(b));
        }
        prop_assert!(bc.contribution_kib(NodeId(0), NodeId(1)) >= before);
    }
}
