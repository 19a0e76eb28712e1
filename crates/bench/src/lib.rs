//! # beatnik-bench — the paper's evaluation harness
//!
//! One bench target per table/figure of the paper's Section 5. Each
//! harness combines:
//!
//! * **measured structure** from real (thread-rank) executions of this
//!   repository's distributed algorithms — point distributions, message
//!   counts, per-rank work; with
//! * **the analytic Lassen-like machine model** (`beatnik-model`) to map
//!   that structure onto the paper's 4–1024 GPU scales.
//!
//! The models here count exactly what the implementation does: the
//! low-order solver performs 8 distributed 2D transforms per derivative
//! evaluation and 3 evaluations per RK3 step, each transform performing
//! 3 data reshapes; the cutoff solver performs 3 `alltoallv` migration
//! rounds per evaluation plus neighbor-list construction and pair forces.
//!
//! Absolute times are model outputs (the authors' Lassen is not
//! available); the assertions in this crate's tests — and the
//! paper-comparison tables in EXPERIMENTS.md — are about *shape*:
//! who wins, by what factor, where curves turn over.

use beatnik_model::{AllToAllCost, CollectiveCosts, ComputeModel, Machine, NetworkModel};

pub mod figures;
pub mod gate;
pub mod lowmodel;
pub mod cutoffmodel;

pub use figures::*;
pub use gate::{gate_comm, gate_compute, gate_fault, gate_serve, GatePolicy, GateReport};
pub use lowmodel::LowOrderModel;
pub use cutoffmodel::CutoffModel;

/// The GPU counts the paper sweeps (4 → 1024 in powers of 4, plus the
/// intermediate powers of 2 used in its plots).
pub fn paper_rank_sweep() -> Vec<usize> {
    vec![4, 8, 16, 32, 64, 128, 256, 512, 1024]
}

/// Fabric contention multiplier for bulk all-to-all traffic, calibrated
/// to the paper's observed weak-scaling growth: effective bandwidth
/// degrades with node count (adaptive-routing losses, hop count, PFC
/// backpressure), quickly up to ~64 nodes and more gently beyond — the
/// slope change the paper reports between 196 and 256 GPUs.
pub fn fabric_contention(machine: &Machine, ranks: usize) -> f64 {
    let nodes = machine.nodes_for(ranks) as f64;
    if nodes <= 1.0 {
        return 1.0;
    }
    let l = nodes.log2();
    let fast = l.min(6.0); // up to 64 nodes
    let slow = (l - 6.0).max(0.0); // beyond
    1.0 + 0.28 * fast + 0.12 * slow
}

/// Cost of one distributed-FFT data reshape at scale: a (possibly
/// subcommunicator) all-to-all of `volume_per_rank` bytes, split into
/// `group` blocks, under fabric contention for the *global* job size.
pub fn reshape_time(
    machine: &Machine,
    job_ranks: usize,
    group_ranks: usize,
    volume_per_rank: f64,
    algo: AllToAllCost,
) -> f64 {
    if group_ranks <= 1 {
        return 0.0;
    }
    let net = NetworkModel::new(machine, job_ranks);
    let costs = CollectiveCosts::new(&net);
    // CollectiveCosts is sized for the whole job; rescale the round count
    // to the participating group.
    let block = (volume_per_rank / group_ranks as f64).max(0.0) as usize;
    let full = costs.alltoall(block, algo);
    let rounds_ratio = (group_ranks - 1) as f64 / (job_ranks.max(2) - 1) as f64;
    full * rounds_ratio * fabric_contention(machine, job_ranks)
}

/// Shared helper: machine models for the paper runs.
pub fn lassen() -> (Machine, ComputeModel) {
    let m = Machine::lassen();
    let c = ComputeModel::new(&m);
    (m, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_range() {
        let s = paper_rank_sweep();
        assert_eq!(*s.first().unwrap(), 4);
        assert_eq!(*s.last().unwrap(), 1024);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn contention_grows_then_flattens() {
        let m = Machine::lassen();
        let c4 = fabric_contention(&m, 4); // single node
        let c64 = fabric_contention(&m, 64);
        let c256 = fabric_contention(&m, 256);
        let c1024 = fabric_contention(&m, 1024);
        assert_eq!(c4, 1.0);
        assert!(c64 > 1.5);
        // Slope change: growth per doubling falls past 256 GPUs.
        let early_slope = c256 - c64;
        let late_slope = c1024 - c256;
        assert!(late_slope < early_slope, "{early_slope} vs {late_slope}");
    }

    #[test]
    fn reshape_time_scales_with_volume_and_group() {
        let m = Machine::lassen();
        let small = reshape_time(&m, 64, 64, 1e6, AllToAllCost::Pairwise);
        let big = reshape_time(&m, 64, 64, 1e8, AllToAllCost::Pairwise);
        assert!(big > 10.0 * small);
        // A subcommunicator reshape of the same volume costs less.
        let sub = reshape_time(&m, 64, 8, 1e6, AllToAllCost::Pairwise);
        assert!(sub < small);
        assert_eq!(reshape_time(&m, 64, 1, 1e6, AllToAllCost::Pairwise), 0.0);
    }
}
