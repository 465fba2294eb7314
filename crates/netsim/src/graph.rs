//! Directed weighted graph with Dijkstra shortest paths.
//!
//! Link delays are directed (`delay(u→v)` may differ from `delay(v→u)`),
//! which is how routing asymmetry enters the simulated RTT matrices.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

/// Index of a node in a [`Graph`].
pub type NodeId = usize;

/// A directed edge with a fixed delay in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Destination node.
    pub to: NodeId,
    /// One-way delay in milliseconds (propagation + per-hop processing).
    pub delay_ms: f64,
}

/// Adjacency-list directed graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    adj: Vec<Vec<Edge>>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds a directed edge `u → v`. Panics on out-of-range nodes or
    /// non-finite/negative delay (these indicate generator bugs).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, delay_ms: f64) {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "edge endpoint out of range"
        );
        assert!(
            delay_ms.is_finite() && delay_ms >= 0.0,
            "invalid delay {delay_ms}"
        );
        self.adj[u].push(Edge { to: v, delay_ms });
    }

    /// Adds a symmetric link (`u → v` and `v → u` with the same delay).
    pub fn add_link(&mut self, u: NodeId, v: NodeId, delay_ms: f64) {
        self.add_edge(u, v, delay_ms);
        self.add_edge(v, u, delay_ms);
    }

    /// Adds an asymmetric link with distinct delays per direction.
    pub fn add_asymmetric_link(&mut self, u: NodeId, v: NodeId, uv_ms: f64, vu_ms: f64) {
        self.add_edge(u, v, uv_ms);
        self.add_edge(v, u, vu_ms);
    }

    /// Outgoing edges of `u`.
    pub fn edges(&self, u: NodeId) -> &[Edge] {
        &self.adj[u]
    }

    /// Single-source shortest path delays (Dijkstra). Unreachable nodes get
    /// `f64::INFINITY`.
    pub fn dijkstra(&self, src: NodeId) -> Vec<f64> {
        self.dijkstra_filtered(src, |_, _| true)
    }

    /// Dijkstra restricted to edges for which `allow(from, edge)` is true.
    ///
    /// Policy routing (valley-free constraints, peering restrictions) is
    /// expressed through the filter rather than by materializing per-policy
    /// subgraphs.
    pub fn dijkstra_filtered(
        &self,
        src: NodeId,
        allow: impl Fn(NodeId, &Edge) -> bool,
    ) -> Vec<f64> {
        let n = self.adj.len();
        let mut dist = vec![f64::INFINITY; n];
        if src >= n {
            return dist;
        }
        dist[src] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem {
            cost: 0.0,
            node: src,
        });
        while let Some(HeapItem { cost, node }) = heap.pop() {
            if cost > dist[node] {
                continue;
            }
            for e in &self.adj[node] {
                if !allow(node, e) {
                    continue;
                }
                let next = cost + e.delay_ms;
                if next < dist[e.to] {
                    dist[e.to] = next;
                    heap.push(HeapItem {
                        cost: next,
                        node: e.to,
                    });
                }
            }
        }
        dist
    }

    /// Shortest-path delay between two nodes (`INFINITY` if unreachable).
    pub fn shortest_delay(&self, src: NodeId, dst: NodeId) -> f64 {
        self.dijkstra(src)[dst]
    }
}

/// Min-heap entry (BinaryHeap is a max-heap, so ordering is reversed).
#[derive(Debug, Clone, Copy)]
struct HeapItem {
    cost: f64,
    node: NodeId,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.node == other.node
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on cost for min-heap behavior; ties broken by node id for
        // determinism.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph() -> Graph {
        // 0 -1ms- 1 -2ms- 2 -3ms- 3
        let mut g = Graph::new(4);
        g.add_link(0, 1, 1.0);
        g.add_link(1, 2, 2.0);
        g.add_link(2, 3, 3.0);
        g
    }

    #[test]
    fn dijkstra_line() {
        let g = line_graph();
        let d = g.dijkstra(0);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 6.0]);
        assert_eq!(g.shortest_delay(3, 0), 6.0);
    }

    #[test]
    fn dijkstra_prefers_shortcut() {
        let mut g = line_graph();
        g.add_link(0, 3, 2.5);
        assert_eq!(g.shortest_delay(0, 3), 2.5);
        assert_eq!(g.shortest_delay(0, 2), 3.0); // unchanged
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = Graph::new(3);
        g.add_link(0, 1, 1.0);
        let d = g.dijkstra(0);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn directed_asymmetry() {
        let mut g = Graph::new(2);
        g.add_asymmetric_link(0, 1, 5.0, 9.0);
        assert_eq!(g.shortest_delay(0, 1), 5.0);
        assert_eq!(g.shortest_delay(1, 0), 9.0);
    }

    #[test]
    fn filtered_dijkstra_respects_policy() {
        let mut g = line_graph();
        g.add_link(0, 3, 0.5); // forbidden shortcut
                               // Policy: the 0-3 shortcut is not usable.
        let allow =
            |from: NodeId, e: &Edge| !((from == 0 && e.to == 3) || (from == 3 && e.to == 0));
        let d = g.dijkstra_filtered(0, allow);
        assert_eq!(d[3], 6.0);
        // Unfiltered uses the shortcut.
        assert_eq!(g.shortest_delay(0, 3), 0.5);
    }

    #[test]
    fn shortest_paths_satisfy_triangle_inequality() {
        // Shortest-path distance is a quasi-metric: d(a,c) <= d(a,b) + d(b,c).
        let mut g = Graph::new(6);
        let delays = [1.5, 2.0, 0.7, 3.1, 1.1, 2.2, 0.9];
        let links = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)];
        for (&(u, v), &d) in links.iter().zip(delays.iter()) {
            g.add_link(u, v, d);
        }
        let all: Vec<Vec<f64>> = (0..6).map(|s| g.dijkstra(s)).collect();
        for a in 0..6 {
            for b in 0..6 {
                for c in 0..6 {
                    assert!(all[a][c] <= all[a][b] + all[b][c] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut g = Graph::new(4);
        g.add_link(0, 1, 1.0);
        g.add_link(0, 2, 1.0);
        g.add_link(1, 3, 1.0);
        g.add_link(2, 3, 1.0);
        let d1 = g.dijkstra(0);
        let d2 = g.dijkstra(0);
        assert_eq!(d1, d2);
        assert_eq!(d1[3], 2.0);
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn negative_delay_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, -1.0);
    }

    #[test]
    fn node_and_edge_counts() {
        let mut g = Graph::new(0);
        assert!(g.adj.is_empty());
        let a = g.add_node();
        let b = g.add_node();
        g.add_link(a, b, 1.0);
        assert_eq!(g.adj.len(), 2);
        assert_eq!(g.edges(a).len(), 1);
        assert_eq!(g.edges(b).len(), 1);
    }
}
