//! Property tests for the point-query entry points.
//!
//! The serving path answers single-node questions from the forward view in
//! `O(postings)`; its whole correctness story is **bit-identity** with the
//! full-sweep estimators. These tests pin that on random graphs, walk
//! parameters and query sets — including the degenerate sets (empty, full)
//! and the ranking semantics of `top_m_uncovered`.

use proptest::prelude::*;
use proptest::Strategy;
use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::{NodeSet, WalkIndex};

/// A random simple graph plus walk parameters and a random query set.
fn random_instance() -> impl Strategy<Value = (CsrGraph, u32, usize, u64, Vec<u32>)> {
    (5usize..=40)
        .prop_flat_map(|n| {
            let max_edges = (n * (n - 1) / 2).min(120);
            (
                Just(n),
                proptest::collection::vec((0..n as u32, 0..n as u32), 1..=max_edges),
                1u32..=8,   // l
                1usize..=6, // r
                0u64..u64::MAX,
                proptest::collection::vec(0..n as u32, 0..=6), // set members
            )
        })
        .prop_map(|(n, edges, l, r, seed, members)| {
            let g = CsrGraph::from_edges(n, &edges).expect("valid edges");
            (g, l, r, seed, members)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Point hit time / hit probability ≡ the full-sweep estimators,
    /// bit for bit, at every node.
    #[test]
    fn point_queries_are_bit_identical_to_sweeps(
        (g, l, r, seed, members) in random_instance()
    ) {
        let idx = WalkIndex::build(&g, l, r, seed);
        let set = NodeSet::from_nodes(g.n(), members.into_iter().map(NodeId));
        let ht = idx.estimate_hit_times(&set);
        let hp = idx.estimate_hit_probs(&set);
        for v in g.nodes() {
            prop_assert_eq!(
                idx.point_hit_time(v, &set).to_bits(),
                ht[v.index()].to_bits(),
                "hit time diverges at {}", v
            );
            prop_assert_eq!(
                idx.point_hit_prob(v, &set).to_bits(),
                hp[v.index()].to_bits(),
                "hit prob diverges at {}", v
            );
        }
        // Coverage equals the estimator total up to reassociation.
        let total: f64 = hp.iter().sum();
        prop_assert!((idx.coverage(&set) - total).abs() < 1e-9);
    }

    /// `top_m_uncovered` returns exactly the `m` lowest-probability nodes
    /// in (probability, id) order, with sweep-identical probabilities.
    #[test]
    fn top_m_uncovered_matches_sorted_sweep(
        (g, l, r, seed, members) in random_instance(),
        m in 0usize..=12
    ) {
        let idx = WalkIndex::build(&g, l, r, seed);
        let set = NodeSet::from_nodes(g.n(), members.into_iter().map(NodeId));
        let hp = idx.estimate_hit_probs(&set);
        let mut reference: Vec<(NodeId, f64)> = g.nodes().map(|v| (v, hp[v.index()])).collect();
        reference.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        reference.truncate(m.min(g.n()));
        let got = idx.top_m_uncovered(m, &set);
        prop_assert_eq!(got.len(), reference.len());
        for (got, want) in got.iter().zip(&reference) {
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }
}

#[test]
fn point_queries_survive_save_load() {
    // A reopened index serves the saved forward view; the point queries
    // must keep answering identically.
    let g = rwd_graph::generators::erdos_renyi_gnp(60, 0.08, 3).unwrap();
    let idx = WalkIndex::build(&g, 5, 4, 17);
    let dir = std::env::temp_dir().join("rwd_point_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.rwdidx");
    idx.save_v4(&path).unwrap();
    let loaded = WalkIndex::open_mapped(&path).unwrap();
    let set = NodeSet::from_nodes(60, [NodeId(0), NodeId(7), NodeId(31)]);
    for v in g.nodes() {
        assert_eq!(
            loaded.point_hit_time(v, &set).to_bits(),
            idx.point_hit_time(v, &set).to_bits()
        );
        assert_eq!(
            loaded.point_hit_prob(v, &set).to_bits(),
            idx.point_hit_prob(v, &set).to_bits()
        );
    }
    assert_eq!(
        loaded.coverage(&set).to_bits(),
        idx.coverage(&set).to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}
