//! The names the frozen `rtbench/` benchmark still calls.
//!
//! `rtbench/` may not change outside a benchmark change, so these nine
//! forwards keep their old signatures until that change moves it to
//! [`crate::enforced::simulate`], [`crate::monolithic::simulate`],
//! [`crate::run_seeds`] and [`crate::robustness_report`]; then this
//! module goes. Nothing else may call them.

use crate::config::SimConfig;
use crate::faults::MitigationPolicy;
use crate::hooks::Hooks;
use crate::live::{SimLive, SimLiveMetrics};
use crate::metrics::SimMetrics;
use crate::robustness::{robustness_report, RobustnessReport};
use crate::runner::{run_seeds, MultiSeedReport};
use crate::{enforced, monolithic};
use dataflow_model::{Perturbation, PipelineSpec, Topology};
use rtsdf_core::{MonolithicSchedule, WaitSchedule};

const VALID: &str = "rtbench passes valid simulation input";

fn faulted<'a>(
    perturb: &'a Perturbation,
    policy: &'a MitigationPolicy,
    live: Option<&'a SimLive<'a>>,
) -> Hooks<'a> {
    let faults = Some((perturb, policy));
    Hooks {
        faults,
        live,
        ..Hooks::default()
    }
}

#[doc(hidden)]
pub fn simulate_enforced(
    pipeline: &PipelineSpec,
    schedule: &WaitSchedule,
    deadline: f64,
    config: &SimConfig,
) -> SimMetrics {
    let t = Topology::chain(pipeline);
    enforced::simulate(&t, schedule, deadline, config, Hooks::default()).expect(VALID)
}

#[doc(hidden)]
pub fn simulate_monolithic(
    pipeline: &PipelineSpec,
    schedule: &MonolithicSchedule,
    deadline: f64,
    config: &SimConfig,
) -> SimMetrics {
    let t = Topology::chain(pipeline);
    monolithic::simulate(&t, schedule, deadline, config, Hooks::default()).expect(VALID)
}

#[doc(hidden)]
pub fn run_seeds_enforced(
    pipeline: &PipelineSpec,
    schedule: &WaitSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
) -> MultiSeedReport {
    let t = Topology::chain(pipeline);
    run_seeds(base_config, num_seeds, None, |c, h| {
        enforced::simulate(&t, schedule, deadline, c, h)
    })
    .expect(VALID)
}

#[doc(hidden)]
pub fn run_seeds_monolithic(
    pipeline: &PipelineSpec,
    schedule: &MonolithicSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
) -> MultiSeedReport {
    let t = Topology::chain(pipeline);
    run_seeds(base_config, num_seeds, None, |c, h| {
        monolithic::simulate(&t, schedule, deadline, c, h)
    })
    .expect(VALID)
}

#[doc(hidden)]
pub fn simulate_enforced_topology_perturbed(
    topology: &Topology,
    schedule: &WaitSchedule,
    deadline: f64,
    config: &SimConfig,
    perturb: &Perturbation,
    policy: &MitigationPolicy,
) -> SimMetrics {
    let hooks = faulted(perturb, policy, None);
    enforced::simulate(topology, schedule, deadline, config, hooks).expect(VALID)
}

#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn simulate_enforced_topology_perturbed_live(
    topology: &Topology,
    schedule: &WaitSchedule,
    deadline: f64,
    config: &SimConfig,
    perturb: &Perturbation,
    policy: &MitigationPolicy,
    live: &SimLive<'_>,
) -> SimMetrics {
    let hooks = faulted(perturb, policy, Some(live));
    enforced::simulate(topology, schedule, deadline, config, hooks).expect(VALID)
}

#[doc(hidden)]
pub fn simulate_monolithic_topology_perturbed(
    topology: &Topology,
    schedule: &MonolithicSchedule,
    deadline: f64,
    config: &SimConfig,
    perturb: &Perturbation,
) -> SimMetrics {
    let none = MitigationPolicy::none();
    let hooks = faulted(perturb, &none, None);
    monolithic::simulate(topology, schedule, deadline, config, hooks).expect(VALID)
}

#[doc(hidden)]
pub fn simulate_monolithic_topology_perturbed_live(
    topology: &Topology,
    schedule: &MonolithicSchedule,
    deadline: f64,
    config: &SimConfig,
    perturb: &Perturbation,
    live: &SimLive<'_>,
) -> SimMetrics {
    let none = MitigationPolicy::none();
    let hooks = faulted(perturb, &none, Some(live));
    monolithic::simulate(topology, schedule, deadline, config, hooks).expect(VALID)
}

#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn robustness_report_topology_live(
    topology: &Topology,
    enforced: &WaitSchedule,
    monolithic: &MonolithicSchedule,
    deadline: f64,
    config: &SimConfig,
    num_seeds: u64,
    perturb: &Perturbation,
    intensities: &[f64],
    target: f64,
    live: Option<&SimLiveMetrics>,
) -> RobustnessReport {
    robustness_report(
        topology,
        enforced,
        monolithic,
        deadline,
        config,
        num_seeds,
        perturb,
        intensities,
        target,
        live,
    )
    .expect(VALID)
}
