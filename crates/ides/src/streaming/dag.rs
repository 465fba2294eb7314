//! Dependency-DAG planning for epoch application.
//!
//! One epoch's maintenance work — landmark-row absorbs, ordinary-host
//! re-joins, refresh events — is planned as a dependency DAG before any
//! arithmetic runs, so independent operations can execute concurrently
//! while the *committed* result stays bit-identical to serial
//! application. The dependency rules:
//!
//! * **Absorbs of distinct landmarks are independent.** An absorb
//!   re-solves one landmark's factor rows and replaces exactly one row of
//!   each cached Gram's design matrix ([`ides_linalg::solve::RowWriters`]
//!   tracks the last writer per row); absorbs touching disjoint rows
//!   read the same epoch-start state, so their solves commute. Two
//!   absorbs of the **same** landmark are ordered (a row chain).
//! * **A host rejoin depends on every absorb of a landmark in its
//!   observed set.** A full-measurement rejoin observes every landmark
//!   ([`Observed::All`]) and therefore runs after all absorbs of the
//!   epoch; a partial-measurement rejoin ([`Observed::Subset`]) only
//!   waits for the absorbs it can actually see.
//! * **Refresh events are barriers.** A warm refit rewrites the whole
//!   model and refactors both Grams, so a [`EpochOp::Refresh`] node
//!   depends on every earlier node and every later node depends on it.
//!
//! The DAG is leveled into **antichains** (Kahn longest-path layering):
//! level of a node = 1 + max level of its dependencies. Every node in a
//! level is mutually independent, so the executor may run a level's
//! solves on scoped threads in any order — commits always land serially
//! in ascending node order, which is what makes the merge deterministic
//! (see `ides::streaming`'s executor documentation).

use ides_linalg::solve::RowWriters;

/// One plannable maintenance operation of an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochOp {
    /// Re-solve landmark `landmark`'s factor rows and absorb them into
    /// the cached Grams by rank-1 row replacement.
    Absorb {
        /// Landmark (design-matrix row) index.
        landmark: usize,
    },
    /// Re-join ordinary host `host` against the maintained model.
    Rejoin {
        /// Host index (row of the caller's measurement matrices).
        host: usize,
        /// Which landmarks this host's rejoin reads.
        observed: Observed,
    },
    /// A refresh-tier event (warm partial refit + Gram refactorization):
    /// a barrier ordered after everything before it and before everything
    /// after it.
    Refresh,
}

/// The landmark set a host rejoin reads — the dependency footprint of a
/// [`EpochOp::Rejoin`] node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observed {
    /// The host measured every landmark (the batched full-row join): the
    /// rejoin depends on every absorb of the epoch.
    All,
    /// The host only observes these landmarks (the §6.2 partial-join
    /// path): the rejoin depends only on their absorbs.
    Subset(Vec<usize>),
}

/// Shape statistics of one epoch's plan — exposed through service metrics
/// and `ides-cli serve --json` so write-side parallelism is observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Total DAG nodes (absorbs + rejoins + refresh barriers).
    pub nodes: usize,
    /// Dependency edges (one per distinct (node, dependency) pair).
    pub edges: usize,
    /// Edges the same operation stream would have if every rejoin were
    /// [`Observed::All`] — the conservative PR-8 worst case. The spread
    /// between `full_edges` and `edges` is what partial observed sets
    /// pruned; [`PlanStats::pruning`] reports it as a ratio.
    pub full_edges: usize,
    /// Rejoins elided entirely: hosts whose observed subset misses every
    /// landmark this epoch touched, planned while the caller attested the
    /// coordinate table was current (their recompute would be a bitwise
    /// no-op). Not counted in `nodes`/`edges`; their `Observed::All`
    /// worst-case edges still count in `full_edges`.
    pub pruned: usize,
    /// Antichain groups the executor runs (one barrier sync per group).
    pub groups: usize,
    /// Widest group — the peak concurrency the plan admits.
    pub max_width: usize,
    /// Longest dependency chain in nodes. Under longest-path layering
    /// this equals `groups`; it is reported separately because it is the
    /// quantity with meaning (the serial fraction of the plan) even if a
    /// future executor subdivides groups.
    pub critical_path: usize,
}

impl PlanStats {
    /// Fraction of the [`Observed::All`] worst-case dependency edges this
    /// plan avoided (`1 − edges/full_edges`; 0 when the worst case has no
    /// edges). A full-row epoch reports 0; a localized-drift epoch whose
    /// hosts mostly observe undrifted landmarks approaches 1.
    pub fn pruning(&self) -> f64 {
        if self.full_edges == 0 {
            0.0
        } else {
            1.0 - self.edges as f64 / self.full_edges as f64
        }
    }
}

/// A leveled dependency DAG over one epoch's operations.
///
/// Built by [`EpochDag::build`]; executed by
/// `StreamingServer::apply_epoch_planned`, which runs each level's
/// independent solves concurrently and commits them serially in node
/// order.
#[derive(Debug, Clone)]
pub struct EpochDag {
    ops: Vec<EpochOp>,
    /// Node indices per antichain level, ascending within each level.
    levels: Vec<Vec<usize>>,
    edges: usize,
    /// Edge count under the `Observed::All` worst case (see
    /// [`PlanStats::full_edges`]).
    full_edges: usize,
    /// Trailing full-measurement rejoins that are counted, not
    /// materialised (see [`EpochDag::build_with_full_rejoins`]), and the
    /// antichain level they all share.
    counted_rejoins: usize,
    counted_level: usize,
}

impl EpochDag {
    /// Plans `ops` (in program order) into antichain levels under the
    /// dependency rules in the [module docs](self). `landmarks` bounds the
    /// absorb row indices (rows of the cached Grams' design matrices).
    ///
    /// Runs in O(nodes + observed-set sizes): dependencies are resolved
    /// through last-writer row tracking, never by scanning earlier nodes.
    pub fn build(landmarks: usize, ops: Vec<EpochOp>) -> EpochDag {
        EpochDag::build_with_full_rejoins(landmarks, ops, 0)
    }

    /// [`EpochDag::build`] for `ops` followed by `full_rejoins`
    /// [`Observed::All`] rejoins that are **counted, not materialised**:
    /// a full-measurement rejoin depends on every absorb since the last
    /// barrier (and on the barrier) and nothing depends on it, so `n` of
    /// them are `n` identical leaves of one antichain level. The plan's
    /// [`EpochDag::stats`] are exactly those of the materialised DAG,
    /// while [`EpochDag::ops`] and [`EpochDag::levels`] list only `ops` —
    /// a 10⁵-host epoch plans in O(absorbs), not O(hosts).
    pub fn build_with_full_rejoins(
        landmarks: usize,
        ops: Vec<EpochOp>,
        full_rejoins: usize,
    ) -> EpochDag {
        let mut levels: Vec<Vec<usize>> = Vec::new();
        let mut node_level: Vec<usize> = Vec::with_capacity(ops.len());
        let mut edges = 0usize;
        // Edges the same stream would have were every rejoin Observed::All
        // (tracked alongside `edges`; they only diverge on Subset rejoins).
        let mut full_edges = 0usize;
        // Last absorb per Gram row, reset at each barrier.
        let mut row_writers = RowWriters::new(landmarks);
        // Dedup stamp per landmark id: repeated entries in one observed
        // set must count one edge, not one per occurrence.
        let mut seen_stamp: Vec<usize> = vec![0; landmarks];
        let mut stamp = 0usize;
        // The last barrier (every node at or after it depends on it).
        let mut barrier: Option<usize> = None;
        // Absorbs since the last barrier: count (edge accounting for
        // `Observed::All` rejoins) and max level (their layering).
        let mut absorbs_since_barrier = 0usize;
        let mut max_absorb_level = None::<usize>;

        for (i, op) in ops.iter().enumerate() {
            let level = match op {
                EpochOp::Absorb { landmark } => {
                    let mut lvl = 0usize;
                    if let Some(b) = barrier {
                        edges += 1;
                        full_edges += 1;
                        lvl = lvl.max(node_level[b] + 1);
                    }
                    // Chain on the previous absorb of the same row.
                    if let Some(prev) = row_writers.note(*landmark, i) {
                        edges += 1;
                        full_edges += 1;
                        lvl = lvl.max(node_level[prev] + 1);
                    }
                    absorbs_since_barrier += 1;
                    max_absorb_level = Some(max_absorb_level.map_or(lvl, |m: usize| m.max(lvl)));
                    lvl
                }
                EpochOp::Rejoin { observed, .. } => {
                    let mut lvl = 0usize;
                    if let Some(b) = barrier {
                        edges += 1;
                        full_edges += 1;
                        lvl = lvl.max(node_level[b] + 1);
                    }
                    full_edges += absorbs_since_barrier;
                    match observed {
                        Observed::All => {
                            edges += absorbs_since_barrier;
                            if let Some(m) = max_absorb_level {
                                lvl = lvl.max(m + 1);
                            }
                        }
                        Observed::Subset(seen) => {
                            stamp += 1;
                            for &l in seen {
                                if seen_stamp[l] == stamp {
                                    continue; // duplicate id in this set
                                }
                                seen_stamp[l] = stamp;
                                if let Some(prev) = row_writers.last(l) {
                                    edges += 1;
                                    lvl = lvl.max(node_level[prev] + 1);
                                }
                            }
                        }
                    }
                    lvl
                }
                EpochOp::Refresh => {
                    // Barrier: after every earlier node (level = 1 + max
                    // level so far), and later nodes chain through it.
                    edges += i;
                    full_edges += i;
                    let lvl = levels.len(); // 1 + max level of any prior node
                    barrier = Some(i);
                    row_writers.reset();
                    absorbs_since_barrier = 0;
                    max_absorb_level = None;
                    lvl
                }
            };
            node_level.push(level);
            if level == levels.len() {
                levels.push(Vec::new());
            }
            levels[level].push(i);
        }
        // The counted rejoins: one edge each to the barrier and to every
        // absorb since it, levelled right after the latest of those.
        let mut counted_level = 0usize;
        if full_rejoins > 0 {
            let mut deps = absorbs_since_barrier;
            if let Some(b) = barrier {
                deps += 1;
                counted_level = node_level[b] + 1;
            }
            if let Some(m) = max_absorb_level {
                counted_level = counted_level.max(m + 1);
            }
            edges += deps * full_rejoins;
            full_edges += deps * full_rejoins;
        }
        EpochDag {
            ops,
            levels,
            edges,
            full_edges,
            counted_rejoins: full_rejoins,
            counted_level,
        }
    }

    /// The planned operations, in program order (node index = position).
    pub fn ops(&self) -> &[EpochOp] {
        &self.ops
    }

    /// Antichain levels in execution order; node indices ascend within
    /// each level (the deterministic commit order).
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// Plan shape statistics. `pruned` is 0 here: elided rejoins never
    /// reach the DAG, so the executor that elided them accounts for them
    /// (`StreamingServer::apply_epoch_planned` folds their worst-case
    /// edges into `full_edges` and their count into `pruned`).
    pub fn stats(&self) -> PlanStats {
        let mut groups = self.levels.len();
        let mut max_width = self.levels.iter().map(Vec::len).max().unwrap_or(0);
        if self.counted_rejoins > 0 {
            let shared = self.levels.get(self.counted_level).map_or(0, Vec::len);
            groups = groups.max(self.counted_level + 1);
            max_width = max_width.max(shared + self.counted_rejoins);
        }
        PlanStats {
            nodes: self.ops.len() + self.counted_rejoins,
            edges: self.edges,
            full_edges: self.full_edges,
            pruned: 0,
            groups,
            max_width,
            critical_path: groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn absorb(l: usize) -> EpochOp {
        EpochOp::Absorb { landmark: l }
    }

    fn rejoin_all(h: usize) -> EpochOp {
        EpochOp::Rejoin {
            host: h,
            observed: Observed::All,
        }
    }

    #[test]
    fn empty_epoch_plans_to_nothing() {
        let dag = EpochDag::build(8, Vec::new());
        assert!(dag.levels().is_empty());
        assert_eq!(
            dag.stats(),
            PlanStats {
                nodes: 0,
                edges: 0,
                full_edges: 0,
                pruned: 0,
                groups: 0,
                max_width: 0,
                critical_path: 0
            }
        );
        assert_eq!(dag.stats().pruning(), 0.0);
    }

    #[test]
    fn all_independent_epoch_is_one_antichain() {
        let dag = EpochDag::build(8, (0..8).map(absorb).collect());
        let s = dag.stats();
        assert_eq!(s.groups, 1, "disjoint-row absorbs are one group");
        assert_eq!(s.max_width, 8);
        assert_eq!(s.critical_path, 1);
        assert_eq!(s.edges, 0);
        assert_eq!(dag.levels()[0], (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn same_row_absorbs_chain_to_width_one() {
        // Repeated absorbs of one landmark: an all-dependent chain, which
        // the executor runs through its width-1 serial fallback.
        let dag = EpochDag::build(4, vec![absorb(2); 5]);
        let s = dag.stats();
        assert_eq!(s.groups, 5);
        assert_eq!(s.max_width, 1);
        assert_eq!(s.critical_path, 5);
        assert_eq!(s.edges, 4);
        for (lvl, nodes) in dag.levels().iter().enumerate() {
            assert_eq!(nodes, &[lvl]);
        }
    }

    #[test]
    fn refresh_barrier_splits_the_epoch() {
        // absorb 0, absorb 1 | REFRESH | absorb 0 | rejoin(all)
        let ops = vec![
            absorb(0),
            absorb(1),
            EpochOp::Refresh,
            absorb(0),
            rejoin_all(9),
        ];
        let dag = EpochDag::build(4, ops);
        assert_eq!(
            dag.levels(),
            &[vec![0, 1], vec![2], vec![3], vec![4]],
            "barrier alone in its level; post-barrier work re-levels from it"
        );
        let s = dag.stats();
        assert_eq!(s.groups, 4);
        assert_eq!(s.max_width, 2);
        assert_eq!(s.critical_path, 4);
        // Edges: absorb0' -> barrier, rejoin -> barrier, rejoin -> absorb0',
        // barrier -> both pre-barrier absorbs.
        assert_eq!(s.edges, 5);
    }

    #[test]
    fn rejoin_depends_only_on_observed_absorbs() {
        // A partial-measurement rejoin that observes only landmark 5 is
        // independent of an absorb of landmark 0 — same antichain — while
        // a full-row rejoin waits for it.
        let ops = vec![
            absorb(0),
            EpochOp::Rejoin {
                host: 3,
                observed: Observed::Subset(vec![5]),
            },
            rejoin_all(4),
        ];
        let dag = EpochDag::build(8, ops);
        assert_eq!(dag.levels(), &[vec![0, 1], vec![2]]);
        let s = dag.stats();
        assert_eq!(s.max_width, 2);
        assert_eq!(s.edges, 1, "only the Observed::All rejoin has a dep");
        assert_eq!(
            s.full_edges, 2,
            "worst case: both rejoins would depend on the absorb"
        );
        assert!((s.pruning() - 0.5).abs() < 1e-12);
        // Observing the absorbed landmark restores the edge.
        let ops = vec![
            absorb(0),
            EpochOp::Rejoin {
                host: 3,
                observed: Observed::Subset(vec![0, 5]),
            },
        ];
        let dag = EpochDag::build(8, ops);
        assert_eq!(dag.levels(), &[vec![0], vec![1]]);
        assert_eq!(dag.stats().edges, 1);
    }

    #[test]
    fn duplicate_subset_ids_count_one_edge() {
        // A degenerate observed set repeating one landmark five times must
        // plan exactly like the deduplicated set: one edge, same level.
        let dup = vec![
            absorb(0),
            EpochOp::Rejoin {
                host: 3,
                observed: Observed::Subset(vec![0, 0, 5, 0, 0, 5]),
            },
        ];
        let dag = EpochDag::build(8, dup);
        assert_eq!(dag.levels(), &[vec![0], vec![1]]);
        let s = dag.stats();
        assert_eq!(s.edges, 1, "duplicates must not inflate the edge count");
        assert_eq!(s.full_edges, 1);
        // Two rejoins sharing duplicated ids each get their own dedup
        // stamp — the second set's duplicates are deduped independently.
        let two = vec![
            absorb(0),
            absorb(1),
            EpochOp::Rejoin {
                host: 3,
                observed: Observed::Subset(vec![0, 0]),
            },
            EpochOp::Rejoin {
                host: 4,
                observed: Observed::Subset(vec![1, 1, 0]),
            },
        ];
        let s = EpochDag::build(8, two).stats();
        assert_eq!(s.edges, 3);
        assert_eq!(s.full_edges, 4, "All worst case: 2 rejoins x 2 absorbs");
    }

    #[test]
    fn full_edges_match_edges_without_subsets() {
        // On plans with no Subset rejoins the worst case IS the plan.
        let mut ops: Vec<EpochOp> = (0..3).map(absorb).collect();
        ops.push(EpochOp::Refresh);
        ops.extend((0..4).map(rejoin_all));
        let s = EpochDag::build(8, ops).stats();
        assert_eq!(s.full_edges, s.edges);
        assert_eq!(s.pruning(), 0.0);
    }

    #[test]
    fn counted_full_rejoins_plan_like_materialised_ones() {
        // Every prefix shape the executor plans: nothing, absorbs, a
        // refresh barrier, a barrier then absorbs, and subset rejoins that
        // share the counted rejoins' level.
        let subset = |h: usize, seen: Vec<usize>| EpochOp::Rejoin {
            host: h,
            observed: Observed::Subset(seen),
        };
        let prefixes: Vec<Vec<EpochOp>> = vec![
            Vec::new(),
            (0..3).map(absorb).collect(),
            vec![EpochOp::Refresh],
            vec![absorb(1), EpochOp::Refresh, absorb(0), absorb(0)],
            vec![absorb(0), subset(7, vec![0]), subset(8, vec![5])],
        ];
        for prefix in prefixes {
            for n in [0usize, 1, 5] {
                let mut materialised = prefix.clone();
                materialised.extend((0..n).map(rejoin_all));
                let want = EpochDag::build(8, materialised).stats();
                let counted = EpochDag::build_with_full_rejoins(8, prefix.clone(), n);
                assert_eq!(counted.stats(), want, "{prefix:?} + {n} rejoins");
                assert_eq!(counted.ops().len(), prefix.len());
            }
        }
    }

    #[test]
    fn mixed_epoch_levels_absorbs_then_rejoins() {
        // The shape StreamingServer::apply_epoch_planned builds on the
        // absorb tier: all (distinct) absorbs in one antichain, then every
        // full-row rejoin in a second.
        let mut ops: Vec<EpochOp> = (0..3).map(absorb).collect();
        ops.extend((0..5).map(rejoin_all));
        let dag = EpochDag::build(16, ops);
        let s = dag.stats();
        assert_eq!(s.groups, 2);
        assert_eq!(s.max_width, 5);
        assert_eq!(s.critical_path, 2);
        assert_eq!(s.edges, 15, "each rejoin depends on each absorb");
        assert_eq!(dag.levels()[0], vec![0, 1, 2]);
        assert_eq!(dag.levels()[1], vec![3, 4, 5, 6, 7]);
    }
}
