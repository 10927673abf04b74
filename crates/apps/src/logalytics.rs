//! Streaming log-analytics pipeline — the flagship DAG workload.
//!
//! A real-time observability backend ingests a firehose of log lines
//! and must surface correlated alerts within a bounded latency. Unlike
//! the BLAST chain, the natural shape is a diamond:
//!
//! ```text
//!            ┌─> filter ─┐
//!   parse ───┤           ├─> join ──> aggregate
//!            └─> enrich ─┘
//! ```
//!
//! * **parse** — decode raw lines into structured records; malformed
//!   lines are dropped (attenuating edge to `filter`). Each record also
//!   references a variable number of entities (hosts, services, trace
//!   ids) that need enrichment (expanding edge to `enrich`), of which
//!   only a sampled subset is looked up (routing weight < 1).
//! * **filter** — severity/relevance cut on the record stream
//!   (attenuating).
//! * **enrich** — resolve entity references against metadata tables;
//!   lookups can miss (attenuating).
//! * **join** — correlate filtered records with resolved entities in a
//!   time window; only matched pairs survive (attenuating fan-in).
//! * **aggregate** — fold matches into rollup windows (deterministic
//!   sink).
//!
//! As with the other app modules, the gain models are *measured* by
//! running simplified-but-real per-record computations over a synthetic
//! log stream, then assembled into a [`Topology`] ready for the DAG
//! scheduling machinery in `rtsdf-core`.

use dataflow_model::{GainModel, ModelError, Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One synthetic log line.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLine {
    /// Syslog-style severity, 0 (emergency) … 7 (debug).
    pub severity: u8,
    /// Whether the line parses as structured data at all.
    pub well_formed: bool,
    /// Entity references (hosts, services, trace ids) in the line.
    pub entities: u32,
    /// Whether each referenced entity exists in the metadata tables
    /// (modeled as one shared hit probability realized per entity).
    pub entity_known: f64,
}

/// Synthetic-workload and pipeline parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogalyticsConfig {
    /// Fraction of lines that fail to parse.
    pub malformed_fraction: f64,
    /// Severity threshold: records at or below this pass the filter.
    pub severity_threshold: u8,
    /// Maximum entity references per record.
    pub max_entities: u32,
    /// Fraction of entity references sampled for enrichment (the
    /// routing weight of the `parse → enrich` edge).
    pub enrich_sample: f64,
    /// Probability an entity lookup hits the metadata tables.
    pub metadata_hit: f64,
    /// Probability a filtered record or resolved entity finds its
    /// counterpart inside the join window.
    pub join_match: f64,
    /// Lines used to measure the gain distributions.
    pub lines: usize,
    /// Per-node service times (cycles under the 1/N share) for
    /// parse, filter, enrich, join, aggregate.
    pub service_times: [f64; 5],
    /// SIMD width.
    pub vector_width: u32,
}

impl Default for LogalyticsConfig {
    fn default() -> Self {
        LogalyticsConfig {
            malformed_fraction: 0.08,
            severity_threshold: 4,
            max_entities: 6,
            enrich_sample: 0.75,
            metadata_hit: 0.82,
            join_match: 0.6,
            lines: 40_000,
            service_times: [240.0, 130.0, 870.0, 1450.0, 510.0],
            vector_width: 128,
        }
    }
}

/// Generate one synthetic log line: mostly chatty low-severity traffic
/// with a long tail of severe events carrying more entity references.
pub fn synth_line<R: Rng + ?Sized>(config: &LogalyticsConfig, rng: &mut R) -> LogLine {
    // Severity skews verbose: P(sev) ∝ 2^sev over 0..=7.
    let u = rng.gen::<f64>() * 255.0;
    let mut severity = 0u8;
    let mut mass = 1.0;
    let mut acc = mass;
    while severity < 7 && u >= acc {
        severity += 1;
        mass *= 2.0;
        acc += mass;
    }
    // Severe events reference more entities (bigger blast radius).
    let expected = 1.0 + (7 - severity) as f64 * 0.5;
    let mut entities = 0u32;
    let mut t = 0.0;
    while entities < config.max_entities {
        t += -rng.gen::<f64>().max(1e-12).ln() / expected;
        if t > 1.0 {
            break;
        }
        entities += 1;
    }
    LogLine {
        severity,
        well_formed: rng.gen::<f64>() >= config.malformed_fraction,
        entities,
        entity_known: config.metadata_hit,
    }
}

/// Parse node: `true` keeps the line as a structured record.
pub fn parse_ok(line: &LogLine) -> bool {
    line.well_formed
}

/// Filter node: severity cut. `true` keeps the record.
pub fn severity_filter(config: &LogalyticsConfig, line: &LogLine) -> bool {
    line.severity <= config.severity_threshold
}

/// Enrich node: one metadata lookup per sampled entity reference.
/// `true` means the lookup hit.
pub fn metadata_lookup<R: Rng + ?Sized>(line: &LogLine, rng: &mut R) -> bool {
    rng.gen::<f64>() < line.entity_known
}

/// Join node: window correlation. `true` means the record or entity
/// found its counterpart and produces a match.
pub fn window_join<R: Rng + ?Sized>(config: &LogalyticsConfig, rng: &mut R) -> bool {
    rng.gen::<f64>() < config.join_match
}

/// Measure the per-edge gain distributions over a synthetic log stream
/// and assemble the diamond topology.
pub fn synthesize(config: &LogalyticsConfig, seed: u64) -> Result<Topology, ModelError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parsed = 0u64;
    let mut entity_counts = vec![0u64; config.max_entities as usize + 1];
    let mut filter_pass = 0u64;
    let mut lookup_hit = 0u64;
    let mut lookup_total = 0u64;
    let mut join_match = 0u64;
    let mut join_total = 0u64;

    for _ in 0..config.lines {
        let line = synth_line(config, &mut rng);
        if !parse_ok(&line) {
            continue;
        }
        parsed += 1;
        entity_counts[line.entities as usize] += 1;
        if severity_filter(config, &line) {
            filter_pass += 1;
            join_total += 1;
            if window_join(config, &mut rng) {
                join_match += 1;
            }
        }
        for _ in 0..line.entities {
            lookup_total += 1;
            if metadata_lookup(&line, &mut rng) {
                lookup_hit += 1;
            }
        }
    }

    // parse → filter: fraction of lines surviving the parse, thinned
    // further by the filter's pass rate downstream — the edge gain is
    // the parse survival alone; the filter node's own attenuation lives
    // on its out-edge.
    let g_parse = parsed as f64 / config.lines.max(1) as f64;
    // parse → enrich: entity references per *parsed* record, as an
    // empirical pmf (includes zero-entity records).
    let pmf: Vec<(u32, f64)> = entity_counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(k, &c)| (k as u32, c as f64 / parsed.max(1) as f64))
        .collect();
    let total: f64 = pmf.iter().map(|(_, p)| p).sum();
    let pmf: Vec<(u32, f64)> = pmf.into_iter().map(|(k, p)| (k, p / total)).collect();
    let g_filter = filter_pass as f64 / parsed.max(1) as f64;
    let g_enrich = if lookup_total == 0 {
        0.0
    } else {
        lookup_hit as f64 / lookup_total as f64
    };
    let g_join = if join_total == 0 {
        0.0
    } else {
        join_match as f64 / join_total as f64
    };

    let [t_parse, t_filter, t_enrich, t_join, t_agg] = config.service_times;
    TopologyBuilder::new(config.vector_width)
        .node("parse", t_parse)
        .node("filter", t_filter)
        .node("enrich", t_enrich)
        .node("join", t_join)
        .node("aggregate", t_agg)
        // Records: survive parsing, then get severity-filtered.
        .edge(0, 1, GainModel::Bernoulli { p: g_parse }, 1.0)
        // Entities: a variable count per record, of which only a
        // sampled subset is enriched (routing weight).
        .edge(0, 2, GainModel::Empirical { pmf }, config.enrich_sample)
        // Filtered records flow into the join window.
        .edge(1, 3, GainModel::Bernoulli { p: g_filter }, 1.0)
        // Resolved entities flow into the join window.
        .edge(2, 3, GainModel::Bernoulli { p: g_enrich }, 1.0)
        // Matches flow into the rollup.
        .edge(3, 4, GainModel::Bernoulli { p: g_join }, 1.0)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_model::RtParams;
    use rtsdf_core::EnforcedProblem;

    #[test]
    fn synthesized_topology_shape() {
        let t = synthesize(&LogalyticsConfig::default(), 7).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.edges().len(), 5);
        assert_eq!(t.vector_width(), 128);
        assert_eq!(t.source(), 0);
        assert!(t.is_sink(4));
        assert!(t.as_chain().is_none(), "diamond must not look like a chain");
        // parse keeps most lines.
        let g_parse = t.edge(0).gain.mean();
        assert!(g_parse > 0.85 && g_parse <= 1.0, "g_parse = {g_parse}");
        // entity references expand.
        let g_ent = t.edge(1).gain.mean();
        assert!(g_ent > 1.0, "g_ent = {g_ent}");
        // the sampled-enrichment routing weight thins the entity flow.
        assert!(t.edge(1).weight < 1.0);
        assert!(t.edge(1).mean_flow() < g_ent);
        // filter, enrich, join all attenuate.
        for e in [2, 3, 4] {
            let g = t.edge(e).gain.mean();
            assert!(g > 0.0 && g < 1.0, "edge {e}: g = {g}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = synthesize(&LogalyticsConfig::default(), 3).unwrap();
        let b = synthesize(&LogalyticsConfig::default(), 3).unwrap();
        assert_eq!(a.total_gains(), b.total_gains());
        let c = synthesize(&LogalyticsConfig::default(), 4).unwrap();
        assert_ne!(a.total_gains(), c.total_gains());
    }

    #[test]
    fn entity_counts_respect_cap() {
        let cfg = LogalyticsConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2_000 {
            let line = synth_line(&cfg, &mut rng);
            assert!(line.entities <= cfg.max_entities);
            assert!(line.severity <= 7);
        }
    }

    #[test]
    fn severe_lines_reference_more_entities() {
        let cfg = LogalyticsConfig::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut sev_sum = 0.0;
        let mut sev_n = 0u64;
        let mut dbg_sum = 0.0;
        let mut dbg_n = 0u64;
        for _ in 0..20_000 {
            let line = synth_line(&cfg, &mut rng);
            if line.severity <= 2 {
                sev_sum += line.entities as f64;
                sev_n += 1;
            } else if line.severity == 7 {
                dbg_sum += line.entities as f64;
                dbg_n += 1;
            }
        }
        assert!(sev_n > 0 && dbg_n > 0);
        let m_sev = sev_sum / sev_n as f64;
        let m_dbg = dbg_sum / dbg_n as f64;
        assert!(m_sev > m_dbg, "severe {m_sev} vs debug {m_dbg}");
    }

    #[test]
    fn schedulable_with_dag_solver() {
        let t = synthesize(&LogalyticsConfig::default(), 11).unwrap();
        let b = EnforcedProblem::optimistic_backlog(&t);
        let params = RtParams::new(30.0, 2e5).unwrap();
        let sched = EnforcedProblem::new(&t, params, b).solve();
        assert!(sched.is_ok(), "{sched:?}");
        let sched = sched.unwrap();
        assert_eq!(sched.periods.len(), 5);
        assert!(sched.active_fraction > 0.0 && sched.active_fraction <= 1.0);
    }
}
