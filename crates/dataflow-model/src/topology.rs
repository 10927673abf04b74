//! Explicit DAG topologies.
//!
//! The paper's model is a linear chain: node `i` feeds node `i+1`, and
//! each node's [`GainModel`] describes the outputs it pushes downstream.
//! A [`Topology`] generalizes this to a directed acyclic graph: gains and
//! routing weights live on *edges*, so a node may split its outputs
//! across several consumers (fan-out) and merge inputs from several
//! producers (fan-in). Per-edge gains subsume per-stage gains — a chain
//! is the special case where node `i` has exactly one out-edge, to node
//! `i+1`, carrying the stage gain with weight 1 ([`Topology::chain`]).
//!
//! Invariants guaranteed after construction: at least one node, all node
//! and edge parameters valid, stage names unique, no self-edges or
//! parallel duplicate edges, the edge relation acyclic, and exactly one
//! source node (in-degree 0) that external arrivals feed.

use crate::error::ModelError;
use crate::gain::{GainModel, GainSampler};
use crate::node::NodeSpec;
use crate::perturb::Perturbation;
use crate::pipeline::PipelineSpec;

/// One directed edge of a [`Topology`].
///
/// Per consumed item at `src`, the edge emits `k ~ gain` items toward
/// `dst`; when `weight < 1`, each emitted item additionally survives an
/// independent Bernoulli(`weight`) routing draw. The mean per-item flow
/// along the edge is therefore `gain.mean() * weight`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSpec {
    /// Producing node index.
    pub src: usize,
    /// Consuming node index.
    pub dst: usize,
    /// Output-count distribution per consumed input along this edge.
    pub gain: GainModel,
    /// Routing weight in `(0, 1]`: thinning probability applied to each
    /// output drawn from `gain`.
    pub weight: f64,
}

impl EdgeSpec {
    /// Construct an edge spec.
    pub fn new(src: usize, dst: usize, gain: GainModel, weight: f64) -> Self {
        EdgeSpec {
            src,
            dst,
            gain,
            weight,
        }
    }

    /// Mean items emitted toward `dst` per item consumed at `src`.
    pub fn mean_flow(&self) -> f64 {
        self.gain.mean() * self.weight
    }
}

/// A validated DAG of processing nodes sharing one SIMD device.
///
/// Construct via [`Topology::new`], incrementally with
/// [`TopologyBuilder`], or from a linear [`PipelineSpec`] with
/// [`Topology::chain`]. Unlike `PipelineSpec` this type is deliberately
/// *not* serializable: the precomputed topological order and adjacency
/// are invariants that deserialization could not re-establish safely, so
/// workloads are built in-process (see `apps::logalytics`).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    edges: Vec<EdgeSpec>,
    vector_width: u32,
    topo_order: Vec<usize>,
    in_edges: Vec<Vec<usize>>,
    out_edges: Vec<Vec<usize>>,
}

/// A standalone gain law's error, attributed to edge `edge`.
fn edge_gain_error(edge: usize, err: ModelError) -> ModelError {
    let reason = match err {
        ModelError::InvalidGain { reason, .. } => reason,
        other => other.to_string(),
    };
    ModelError::InvalidEdgeGain { edge, reason }
}

impl Topology {
    /// Build and validate a topology.
    pub fn new(
        nodes: Vec<NodeSpec>,
        edges: Vec<EdgeSpec>,
        vector_width: u32,
    ) -> Result<Self, ModelError> {
        if nodes.is_empty() {
            return Err(ModelError::EmptyPipeline);
        }
        if vector_width == 0 {
            return Err(ModelError::ZeroVectorWidth);
        }
        for (i, n) in nodes.iter().enumerate() {
            n.validate(i)?;
        }
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[..i] {
                if a.name == b.name {
                    return Err(ModelError::DuplicateStageName {
                        name: a.name.clone(),
                    });
                }
            }
        }
        let n = nodes.len();
        for (e, edge) in edges.iter().enumerate() {
            for &endpoint in &[edge.src, edge.dst] {
                if endpoint >= n {
                    return Err(ModelError::EdgeEndpointOutOfRange { edge: e, endpoint });
                }
            }
            if edge.src == edge.dst {
                return Err(ModelError::SelfEdge { node: edge.src });
            }
            if !(edge.weight.is_finite() && edge.weight > 0.0 && edge.weight <= 1.0) {
                return Err(ModelError::InvalidEdgeWeight {
                    edge: e,
                    value: edge.weight,
                });
            }
            if let Err(err) = edge.gain.validate(usize::MAX) {
                return Err(edge_gain_error(e, err));
            }
            if edges[..e]
                .iter()
                .any(|p| p.src == edge.src && p.dst == edge.dst)
            {
                return Err(ModelError::DuplicateEdge {
                    src: edge.src,
                    dst: edge.dst,
                });
            }
        }

        // Adjacency as edge-id lists, in edge declaration order.
        let mut in_edges = vec![Vec::new(); n];
        let mut out_edges = vec![Vec::new(); n];
        for (e, edge) in edges.iter().enumerate() {
            out_edges[edge.src].push(e);
            in_edges[edge.dst].push(e);
        }

        // Kahn topological sort; smallest-index-first for determinism.
        let mut in_deg: Vec<usize> = in_edges.iter().map(Vec::len).collect();
        let sources = in_deg.iter().filter(|&&d| d == 0).count();
        if sources != 1 {
            return Err(ModelError::MultipleSources { count: sources });
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| in_deg[i] == 0).collect();
        let mut topo_order = Vec::with_capacity(n);
        while let Some(&next) = ready.iter().min() {
            ready.retain(|&i| i != next);
            topo_order.push(next);
            for &e in &out_edges[next] {
                let d = edges[e].dst;
                in_deg[d] -= 1;
                if in_deg[d] == 0 {
                    ready.push(d);
                }
            }
        }
        if topo_order.len() != n {
            return Err(ModelError::CyclicTopology);
        }

        Ok(Topology {
            nodes,
            edges,
            vector_width,
            topo_order,
            in_edges,
            out_edges,
        })
    }

    /// Express a linear [`PipelineSpec`] as a `Topology`: edge `i`
    /// connects node `i` to node `i+1` carrying node `i`'s gain with
    /// weight 1. The final node's gain stays on its [`NodeSpec`] only
    /// (a chain's last stage emits nothing downstream).
    pub fn chain(pipeline: &PipelineSpec) -> Self {
        let nodes = pipeline.nodes().to_vec();
        let edges = (0..nodes.len().saturating_sub(1))
            .map(|i| EdgeSpec::new(i, i + 1, nodes[i].gain.clone(), 1.0))
            .collect();
        // A valid PipelineSpec always yields a valid chain topology.
        Topology::new(nodes, edges, pipeline.vector_width())
            .expect("chain of a valid PipelineSpec is a valid Topology")
    }

    /// If this topology is exactly a linear chain (edge `i` is
    /// `i → i+1` with weight 1), reconstruct the equivalent
    /// [`PipelineSpec`]; otherwise `None`.
    ///
    /// For a topology built by [`Topology::chain`] the roundtrip is
    /// exact: `Topology::chain(&p).as_chain() == Some(p)`.
    pub fn as_chain(&self) -> Option<PipelineSpec> {
        let n = self.nodes.len();
        if self.edges.len() != n - 1 {
            return None;
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.src != i || e.dst != i + 1 || e.weight != 1.0 {
                return None;
            }
        }
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let gain = if i + 1 < n {
                    self.edges[i].gain.clone()
                } else {
                    node.gain.clone()
                };
                NodeSpec::new(node.name.clone(), node.service_time, gain)
            })
            .collect();
        Some(PipelineSpec::new(nodes, self.vector_width).expect("chain nodes already validated"))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Topologies are never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// SIMD vector width `v`.
    pub fn vector_width(&self) -> u32 {
        self.vector_width
    }

    /// The nodes, in declaration order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Node `i`'s spec.
    pub fn node(&self, i: usize) -> &NodeSpec {
        &self.nodes[i]
    }

    /// The edges, in declaration order.
    pub fn edges(&self) -> &[EdgeSpec] {
        &self.edges
    }

    /// Edge `e`'s spec.
    pub fn edge(&self, e: usize) -> &EdgeSpec {
        &self.edges[e]
    }

    /// One gain sampler per edge, in edge order: what a run builds once
    /// at its start. Under `drift` each edge draws from its drifted law
    /// ([`Perturbation::drift_gain`], the edge's own law at intensity 0).
    /// A law with no sampler is [`ModelError::InvalidEdgeGain`].
    pub fn samplers(&self, drift: Option<&Perturbation>) -> Result<Vec<GainSampler>, ModelError> {
        self.edges
            .iter()
            .enumerate()
            .map(|(edge, spec)| {
                let law = match drift {
                    Some(perturb) => perturb.drift_gain(&spec.gain),
                    None => spec.gain.clone(),
                };
                law.sampler().map_err(|err| edge_gain_error(edge, err))
            })
            .collect()
    }

    /// A topological order of the node indices (deterministic:
    /// smallest-index-first Kahn).
    pub fn topo_order(&self) -> &[usize] {
        &self.topo_order
    }

    /// Edge ids entering node `i`, in edge declaration order.
    pub fn in_edges(&self, i: usize) -> &[usize] {
        &self.in_edges[i]
    }

    /// Edge ids leaving node `i`, in edge declaration order.
    pub fn out_edges(&self, i: usize) -> &[usize] {
        &self.out_edges[i]
    }

    /// The unique source node (in-degree 0) external arrivals feed.
    pub fn source(&self) -> usize {
        self.topo_order[0]
    }

    /// True when node `i` has no out-edges (a sink).
    pub fn is_sink(&self, i: usize) -> bool {
        self.out_edges[i].is_empty()
    }

    /// Service times `t_i` indexed by node.
    pub fn service_times(&self) -> Vec<f64> {
        self.nodes.iter().map(|n| n.service_time).collect()
    }

    /// Total gains `G_i` *into* each node per original stream input:
    /// `G_source = 1`, and in topological order
    /// `G_j = Σ_{e: src(e)→j} G_{src(e)} · g_e · w_e` (fan-in sums the
    /// per-edge flows; fan-out splits them). For a chain this reduces to
    /// the paper's `G_i = Π_{j<i} g_j`, bit-for-bit.
    pub fn total_gains(&self) -> Vec<f64> {
        let mut g = vec![0.0; self.nodes.len()];
        for &i in &self.topo_order {
            if self.in_edges[i].is_empty() {
                g[i] = 1.0;
            } else {
                g[i] = self.in_edges[i]
                    .iter()
                    .map(|&e| {
                        let edge = &self.edges[e];
                        g[edge.src] * edge.gain.mean() * edge.weight
                    })
                    .sum();
            }
        }
        g
    }

    /// Mean items crossing each edge per original stream input:
    /// `flow_e = G_{src(e)} · g_e · w_e`, indexed by edge id.
    pub fn edge_flows(&self) -> Vec<f64> {
        let g = self.total_gains();
        self.edges
            .iter()
            .map(|e| g[e.src] * e.gain.mean() * e.weight)
            .collect()
    }

    /// Sum of service times over all nodes.
    pub fn total_service_time(&self) -> f64 {
        self.nodes.iter().map(|n| n.service_time).sum()
    }
}

/// Incremental builder for [`Topology`].
///
/// ```
/// use dataflow_model::{GainModel, TopologyBuilder};
/// let t = TopologyBuilder::new(128)
///     .node("parse", 100.0)
///     .node("filter", 50.0)
///     .node("join", 80.0)
///     .edge(0, 1, GainModel::Deterministic { k: 1 }, 1.0)
///     .edge(0, 2, GainModel::Bernoulli { p: 0.5 }, 1.0)
///     .edge(1, 2, GainModel::Deterministic { k: 1 }, 1.0)
///     .build()
///     .unwrap();
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.source(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    nodes: Vec<NodeSpec>,
    edges: Vec<EdgeSpec>,
    vector_width: u32,
}

impl TopologyBuilder {
    /// Start a topology with SIMD width `vector_width`.
    pub fn new(vector_width: u32) -> Self {
        TopologyBuilder {
            nodes: Vec::new(),
            edges: Vec::new(),
            vector_width,
        }
    }

    /// Append a node. Gains live on edges, so only the service time is
    /// given here; the node's own [`GainModel`] slot is a placeholder
    /// (`Deterministic { k: 1 }`) that DAG execution never samples.
    pub fn node(mut self, name: impl Into<String>, service_time: f64) -> Self {
        self.nodes.push(NodeSpec::new(
            name,
            service_time,
            GainModel::Deterministic { k: 1 },
        ));
        self
    }

    /// Append a directed edge.
    pub fn edge(mut self, src: usize, dst: usize, gain: GainModel, weight: f64) -> Self {
        self.edges.push(EdgeSpec::new(src, dst, gain, weight));
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Topology, ModelError> {
        Topology::new(self.nodes, self.edges, self.vector_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineSpecBuilder;

    fn blast_like() -> PipelineSpec {
        PipelineSpecBuilder::new(128)
            .stage("s0", 287.0, GainModel::Bernoulli { p: 0.379 })
            .stage(
                "s1",
                955.0,
                GainModel::CensoredPoisson {
                    mean: 1.920,
                    cap: 16,
                },
            )
            .stage("s2", 402.0, GainModel::Bernoulli { p: 0.0332 })
            .stage("s3", 2753.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap()
    }

    fn diamond() -> Topology {
        TopologyBuilder::new(64)
            .node("parse", 100.0)
            .node("filter", 40.0)
            .node("enrich", 60.0)
            .node("join", 80.0)
            .edge(0, 1, GainModel::Deterministic { k: 1 }, 0.75)
            .edge(0, 2, GainModel::Deterministic { k: 1 }, 0.25)
            .edge(1, 3, GainModel::Bernoulli { p: 0.5 }, 1.0)
            .edge(2, 3, GainModel::Deterministic { k: 2 }, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn chain_roundtrip_is_exact() {
        let p = blast_like();
        let t = Topology::chain(&p);
        assert_eq!(t.len(), 4);
        assert_eq!(t.edges().len(), 3);
        assert_eq!(t.topo_order(), &[0, 1, 2, 3]);
        assert_eq!(t.source(), 0);
        assert!(t.is_sink(3) && !t.is_sink(0));
        assert_eq!(t.as_chain(), Some(p));
    }

    #[test]
    fn chain_total_gains_bit_match_pipeline() {
        let p = blast_like();
        let t = Topology::chain(&p);
        // Weight 1 multiplies exactly, so the DAG propagation must be
        // bit-identical to the chain product.
        assert_eq!(t.total_gains(), p.total_gains());
    }

    #[test]
    fn single_node_chain() {
        let p = PipelineSpecBuilder::new(1)
            .stage("only", 5.0, GainModel::Deterministic { k: 0 })
            .build()
            .unwrap();
        let t = Topology::chain(&p);
        assert_eq!(t.len(), 1);
        assert!(t.edges().is_empty());
        assert!(t.is_sink(0));
        assert_eq!(t.as_chain(), Some(p));
    }

    #[test]
    fn diamond_accessors_and_order() {
        let t = diamond();
        assert_eq!(t.topo_order(), &[0, 1, 2, 3]);
        assert_eq!(t.out_edges(0), &[0, 1]);
        assert_eq!(t.in_edges(3), &[2, 3]);
        assert_eq!(t.source(), 0);
        assert!(t.is_sink(3));
        assert_eq!(t.as_chain(), None);
        assert_eq!(t.edge(2).mean_flow(), 0.5);
    }

    #[test]
    fn diamond_total_gains_split_and_sum() {
        let t = diamond();
        let g = t.total_gains();
        assert_eq!(g[0], 1.0);
        assert!((g[1] - 0.75).abs() < 1e-15);
        assert!((g[2] - 0.25).abs() < 1e-15);
        // join: 0.75·0.5 + 0.25·2 = 0.875
        assert!((g[3] - 0.875).abs() < 1e-15);
        let flows = t.edge_flows();
        assert!((flows[2] - 0.375).abs() < 1e-15);
        assert!((flows[3] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn rejects_duplicate_stage_names() {
        let err = TopologyBuilder::new(4)
            .node("dup", 1.0)
            .node("dup", 2.0)
            .edge(0, 1, GainModel::Deterministic { k: 1 }, 1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::DuplicateStageName { name: "dup".into() });
    }

    #[test]
    fn rejects_self_edges() {
        let err = TopologyBuilder::new(4)
            .node("a", 1.0)
            .node("b", 1.0)
            .edge(0, 1, GainModel::Deterministic { k: 1 }, 1.0)
            .edge(1, 1, GainModel::Deterministic { k: 1 }, 1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::SelfEdge { node: 1 });
    }

    #[test]
    fn rejects_out_of_range_endpoints() {
        let err = TopologyBuilder::new(4)
            .node("a", 1.0)
            .edge(0, 7, GainModel::Deterministic { k: 1 }, 1.0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::EdgeEndpointOutOfRange {
                edge: 0,
                endpoint: 7
            }
        );
    }

    #[test]
    fn rejects_bad_weights() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let err = TopologyBuilder::new(4)
                .node("a", 1.0)
                .node("b", 1.0)
                .edge(0, 1, GainModel::Deterministic { k: 1 }, bad)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidEdgeWeight { edge: 0, .. }),
                "weight {bad} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_edge_gains() {
        let err = TopologyBuilder::new(4)
            .node("a", 1.0)
            .node("b", 1.0)
            .edge(0, 1, GainModel::Bernoulli { p: 2.0 }, 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidEdgeGain { edge: 0, .. }));
    }

    #[test]
    fn rejects_parallel_duplicate_edges() {
        let err = TopologyBuilder::new(4)
            .node("a", 1.0)
            .node("b", 1.0)
            .edge(0, 1, GainModel::Deterministic { k: 1 }, 1.0)
            .edge(0, 1, GainModel::Deterministic { k: 2 }, 0.5)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::DuplicateEdge { src: 0, dst: 1 });
    }

    #[test]
    fn rejects_cycles() {
        let err = TopologyBuilder::new(4)
            .node("a", 1.0)
            .node("b", 1.0)
            .node("c", 1.0)
            .edge(0, 1, GainModel::Deterministic { k: 1 }, 1.0)
            .edge(1, 2, GainModel::Deterministic { k: 1 }, 1.0)
            .edge(2, 1, GainModel::Deterministic { k: 1 }, 1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::CyclicTopology);
    }

    #[test]
    fn rejects_multiple_sources() {
        let err = TopologyBuilder::new(4)
            .node("a", 1.0)
            .node("b", 1.0)
            .node("c", 1.0)
            .edge(0, 2, GainModel::Deterministic { k: 1 }, 1.0)
            .edge(1, 2, GainModel::Deterministic { k: 1 }, 1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::MultipleSources { count: 2 });
    }

    #[test]
    fn rejects_empty_and_zero_width() {
        assert_eq!(
            Topology::new(vec![], vec![], 4).unwrap_err(),
            ModelError::EmptyPipeline
        );
        let nodes = vec![NodeSpec::new("a", 1.0, GainModel::Deterministic { k: 1 })];
        assert_eq!(
            Topology::new(nodes, vec![], 0).unwrap_err(),
            ModelError::ZeroVectorWidth
        );
    }
}
