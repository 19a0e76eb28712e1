//! The top-level `Solver` (paper §3.1): wires the problem state, the
//! Z-Model, a BR solver, and the time integrator, and runs the timestep
//! loop with per-step callbacks for I/O and diagnostics.

use crate::br::{BalancedCutoffBrSolver, BrSolver, CutoffBrSolver, ExactBrSolver, TreeBrSolver};
use crate::init::InitialCondition;
use crate::integrator::TimeIntegrator;
use crate::order::Order;
use crate::params::Params;
use crate::problem::ProblemManager;
use crate::zmodel::ZModel;
use beatnik_comm::dims_create;
use beatnik_dfft::FftConfig;
use beatnik_mesh::{SpatialMesh, SurfaceMesh};
use beatnik_json::{field, impl_json_struct, FromJson, JsonError, ToJson, Value};
use beatnik_spatial::neighbors::Backend;

/// Which far-field solver to construct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BrChoice {
    /// No BR solver (low order only).
    None,
    /// O(n²) ring-pass solver.
    Exact,
    /// Cutoff solver over a spatial mesh spanning `bounds` with the
    /// given cutoff radius.
    Cutoff {
        /// Spatial domain corners `(lo, hi)`.
        bounds: ([f64; 3], [f64; 3]),
    },
    /// Barnes–Hut tree code with the given opening angle.
    Tree {
        /// Opening angle θ (0 = exact).
        theta: f64,
    },
    /// Cutoff solver over a per-evaluation RCB (load-balanced)
    /// decomposition of the x/y domain `bounds`.
    BalancedCutoff {
        /// Spatial domain corners `(lo, hi)` (z extent unused).
        bounds: ([f64; 3], [f64; 3]),
    },
}

impl ToJson for BrChoice {
    fn to_json(&self) -> Value {
        // Externally tagged, matching serde's derive layout.
        match self {
            BrChoice::None => Value::Str("None".to_string()),
            BrChoice::Exact => Value::Str("Exact".to_string()),
            BrChoice::Cutoff { bounds } => Value::Object(vec![(
                "Cutoff".to_string(),
                Value::Object(vec![("bounds".to_string(), bounds.to_json())]),
            )]),
            BrChoice::Tree { theta } => Value::Object(vec![(
                "Tree".to_string(),
                Value::Object(vec![("theta".to_string(), theta.to_json())]),
            )]),
            BrChoice::BalancedCutoff { bounds } => Value::Object(vec![(
                "BalancedCutoff".to_string(),
                Value::Object(vec![("bounds".to_string(), bounds.to_json())]),
            )]),
        }
    }
}

impl FromJson for BrChoice {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) if s == "None" => Ok(BrChoice::None),
            Value::Str(s) if s == "Exact" => Ok(BrChoice::Exact),
            Value::Object(pairs) if pairs.len() == 1 => {
                let (tag, body) = &pairs[0];
                match tag.as_str() {
                    "Cutoff" => Ok(BrChoice::Cutoff {
                        bounds: field(body, "bounds")?,
                    }),
                    "Tree" => Ok(BrChoice::Tree {
                        theta: field(body, "theta")?,
                    }),
                    "BalancedCutoff" => Ok(BrChoice::BalancedCutoff {
                        bounds: field(body, "bounds")?,
                    }),
                    other => Err(JsonError::new(format!("unknown BrChoice variant '{other}'"))),
                }
            }
            other => Err(JsonError::new(format!(
                "expected BrChoice, got {}",
                other.kind()
            ))),
        }
    }
}

/// Everything needed to assemble a solver (mirrors the rocketrig driver's
/// command line).
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Model order.
    pub order: Order,
    /// Far-field solver choice.
    pub br: BrChoice,
    /// Physical/numerical parameters.
    pub params: Params,
    /// Distributed-FFT tuning (low/medium order).
    pub fft: FftConfig,
    /// Initial interface shape.
    pub ic: InitialCondition,
}

impl_json_struct!(SolverConfig { order, br, params, fft, ic });

/// The assembled simulation.
pub struct Solver {
    pm: ProblemManager,
    zmodel: ZModel,
    integrator: TimeIntegrator,
    dt: f64,
    time: f64,
    step: usize,
}

impl Solver {
    /// Build the solver over an existing mesh/state container.
    /// Collective.
    pub fn new(mesh: SurfaceMesh, bc: beatnik_mesh::BoundaryCondition, cfg: SolverConfig) -> Self {
        cfg.params.validate().expect("invalid parameters");
        cfg.ic.validate().expect("invalid initial condition");
        let mut pm = ProblemManager::new(mesh, bc);
        cfg.ic.apply(&mut pm);
        let br: Option<Box<dyn BrSolver>> = match cfg.br {
            BrChoice::None => None,
            BrChoice::Exact => Some(Box::new(ExactBrSolver)),
            BrChoice::Cutoff { bounds } => {
                let dims = dims_create(pm.mesh().comm().size());
                let smesh = SpatialMesh::new(bounds.0, bounds.1, dims);
                Some(Box::new(CutoffBrSolver::new(
                    smesh,
                    cfg.params.cutoff,
                    Backend::Grid,
                )))
            }
            BrChoice::Tree { theta } => Some(Box::new(TreeBrSolver::new(theta))),
            BrChoice::BalancedCutoff { bounds } => Some(Box::new(BalancedCutoffBrSolver::new(
                [bounds.0[0], bounds.0[1]],
                [bounds.1[0], bounds.1[1]],
                cfg.params.cutoff,
                Backend::Grid,
            ))),
        };
        let zmodel = ZModel::new(&pm, cfg.order, cfg.params, br, cfg.fft);
        let integrator = TimeIntegrator::new(&pm);
        Solver {
            pm,
            zmodel,
            integrator,
            dt: cfg.params.dt,
            time: 0.0,
            step: 0,
        }
    }

    /// The problem state.
    pub fn problem(&self) -> &ProblemManager {
        &self.pm
    }

    /// Mutable problem state (for custom initial conditions).
    pub fn problem_mut(&mut self) -> &mut ProblemManager {
        &mut self.pm
    }

    /// The Z-Model in use.
    pub fn zmodel(&self) -> &ZModel {
        &self.zmodel
    }

    /// Simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completed step count.
    pub fn step_count(&self) -> usize {
        self.step
    }

    /// Restore clock state from a checkpoint (the state fields themselves
    /// are loaded by `beatnik_io::checkpoint::load` into the problem).
    pub fn restore_clock(&mut self, step: usize, time: f64) {
        self.step = step;
        self.time = time;
    }

    /// Advance one timestep (applying the Krasny filter on the
    /// configured cadence).
    pub fn step(&mut self) {
        // Clone the recorder handle so the guard does not hold a borrow
        // of `self.pm` across the mutable integrator call.
        let telemetry = std::sync::Arc::clone(self.pm.mesh().comm().telemetry());
        let _phase = telemetry.phase("step");
        self.integrator.step(&self.zmodel, &mut self.pm, self.dt);
        self.time += self.dt;
        self.step += 1;
        let p = self.zmodel.params();
        if p.filter_every > 0 && self.step.is_multiple_of(p.filter_every) {
            let tol = p.filter_tolerance;
            self.zmodel.apply_krasny_filter(&mut self.pm, tol);
        }
    }

    /// Run `steps` timesteps, invoking `callback(step_index, &problem)`
    /// after each (step_index counts completed steps, starting at 1).
    pub fn run(&mut self, steps: usize, mut callback: impl FnMut(usize, &ProblemManager)) {
        for _ in 0..steps {
            self.step();
            callback(self.step, &self.pm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Diagnostics;
    use beatnik_comm::World;
    use beatnik_mesh::BoundaryCondition;
    use std::f64::consts::PI;

    fn config(order: Order, br: BrChoice) -> SolverConfig {
        SolverConfig {
            order,
            br,
            params: Params {
                atwood: 0.5,
                gravity: 2.0,
                mu: 0.0,
                epsilon: 0.15,
                cutoff: 10.0,
                dt: 5e-3,
                ..Params::default()
            },
            fft: FftConfig::default(),
            ic: InitialCondition::SingleMode {
                amplitude: 1e-3,
                modes: [1.0, 1.0],
            },
        }
    }

    fn periodic_mesh(comm: &beatnik_comm::Communicator, n: usize) -> SurfaceMesh {
        let l = 2.0 * PI;
        SurfaceMesh::new(comm, [n, n], [true, true], 2, [0.0, 0.0], [l, l])
    }

    #[test]
    fn invalid_initial_conditions_are_rejected_before_the_first_step() {
        // Zero modes would scale an empty sum by amplitude/0 = inf, and
        // a non-finite amplitude poisons every height: both must stop
        // construction instead of stepping NaN.
        for ic in [
            InitialCondition::MultiMode {
                amplitude: 0.02,
                modes: 0,
                seed: 1,
            },
            InitialCondition::MultiMode {
                amplitude: f64::NAN,
                modes: 4,
                seed: 1,
            },
        ] {
            let built = std::panic::catch_unwind(|| {
                World::builder(1).run(move |comm| {
                    let mesh = periodic_mesh(&comm, 8);
                    let bc = BoundaryCondition::Periodic {
                        periods: [2.0 * PI, 2.0 * PI],
                    };
                    let cfg = SolverConfig {
                        ic,
                        ..config(Order::Low, BrChoice::None)
                    };
                    Solver::new(mesh, bc, cfg).step();
                })
            });
            let err = built.expect_err("solver accepted a bad initial condition");
            let msg = err
                .downcast_ref::<String>()
                .expect("expect() panics with a String");
            assert!(msg.contains("invalid initial condition"), "{ic:?}: {msg}");
        }
    }

    #[test]
    fn low_order_solver_runs_and_grows() {
        World::builder(4).run(|comm| {
            let mesh = periodic_mesh(&comm, 16);
            let bc = BoundaryCondition::Periodic {
                periods: [2.0 * PI, 2.0 * PI],
            };
            let mut s = Solver::new(mesh, bc, config(Order::Low, BrChoice::None));
            let before = Diagnostics::compute(s.problem()).amplitude;
            let mut seen = 0;
            s.run(20, |_, _| seen += 1);
            assert_eq!(seen, 20);
            assert_eq!(s.step_count(), 20);
            assert!((s.time() - 0.1).abs() < 1e-12);
            let after = Diagnostics::compute(s.problem()).amplitude;
            assert!(after > before, "RT instability must grow: {before} -> {after}");
        });
    }

    #[test]
    fn low_order_step_runs_fifteen_transforms_each_way() {
        // Three Runge-Kutta stages of 5 forward + 5 inverse transforms:
        // the call pattern the benchmark's per-step message count pins.
        let p = 2;
        let (_, _, timeline) = World::builder(p).run_profiled(|comm| {
            let mesh = periodic_mesh(&comm, 16);
            let bc = BoundaryCondition::Periodic {
                periods: [2.0 * PI, 2.0 * PI],
            };
            Solver::new(mesh, bc, config(Order::Low, BrChoice::None)).step();
        });
        let calls = |phase: &str| {
            let rows = timeline.phase_attribution();
            rows.iter().find(|r| r.name == phase).map_or(0, |r| r.calls)
        };
        assert_eq!(calls("dfft-forward"), 15 * p as u64);
        assert_eq!(calls("dfft-inverse"), 15 * p as u64);
    }

    #[test]
    fn low_order_step_sends_168_messages_on_two_ranks() {
        // The count the repo benchmark's `low_lat` workload reports as
        // `comm.msgs_per_step` (15 + 15 transforms plus the stage halo refreshes).
        let sent = World::builder(2).run(|comm| {
            let mesh = periodic_mesh(&comm, 32);
            let bc = BoundaryCondition::Periodic {
                periods: [2.0 * PI, 2.0 * PI],
            };
            let mut s = Solver::new(mesh, bc, config(Order::Low, BrChoice::None));
            let before = comm.trace().total_messages();
            s.step();
            comm.trace().total_messages() - before
        });
        assert_eq!(sent.iter().sum::<u64>(), 168);
    }

    #[test]
    fn all_three_orders_run_with_each_br_solver() {
        World::builder(2).run(|comm| {
            let l = 2.0 * PI;
            let cutoff = BrChoice::Cutoff {
                bounds: ([-1.0, -1.0, -2.0], [l + 1.0, l + 1.0, 2.0]),
            };
            for (order, br) in [
                (Order::Low, BrChoice::None),
                (Order::Medium, BrChoice::Exact),
                (Order::Medium, cutoff),
                (Order::High, BrChoice::Exact),
                (Order::High, cutoff),
                (Order::High, BrChoice::Tree { theta: 0.5 }),
                (
                    Order::High,
                    BrChoice::BalancedCutoff {
                        bounds: ([-1.0, -1.0, -2.0], [l + 1.0, l + 1.0, 2.0]),
                    },
                ),
            ] {
                let mesh = periodic_mesh(&comm, 12);
                let bc = BoundaryCondition::Periodic { periods: [l, l] };
                let mut s = Solver::new(mesh, bc, config(order, br));
                s.run(2, |_, _| {});
                let d = Diagnostics::compute(s.problem());
                assert!(d.amplitude.is_finite(), "{order} diverged");
                assert!(d.amplitude > 0.0);
            }
        });
    }

    #[test]
    fn high_order_supports_open_boundaries() {
        World::builder(2).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [12, 12], [false, false], 2, [0.0, 0.0], [1.0, 1.0]);
            let mut cfg = config(Order::High, BrChoice::Exact);
            cfg.params.dt = 1e-3;
            let mut s = Solver::new(mesh, BoundaryCondition::Free, cfg);
            s.run(3, |_, _| {});
            assert!(Diagnostics::compute(s.problem()).amplitude.is_finite());
        });
    }
}
