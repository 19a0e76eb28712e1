//! Initial interface conditions for the rocket-rig problem (paper §4).
//!
//! The interface starts as `z = (x, y, h(x, y))` with zero vorticity;
//! Rayleigh–Taylor forcing then generates vorticity baroclinically. Two
//! paper workloads:
//!
//! * **multi-mode** (periodic): a deterministic random superposition of
//!   modes — even point distribution, limited load imbalance;
//! * **single-mode** (periodic or open): one long-wavelength mode whose
//!   nonlinear rollup creates the load imbalance studied in Figures 6–8.

use crate::params::{finite, ParamError};
use crate::problem::ProblemManager;
use beatnik_json::{field, FromJson, JsonError, ToJson, Value};
use beatnik_prng::Rng;
use std::f64::consts::PI;

/// Initial interface shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialCondition {
    /// Perfectly flat interface (numerical no-op baseline).
    Flat,
    /// One cosine mode per axis: `h = a·cos(2π·mₓ·x̃)·cos(2π·m_y·ỹ)` on
    /// periodic meshes, `h = a·cos(π·mₓ·x̃)·cos(π·m_y·ỹ)` on open meshes
    /// (so the slope vanishes at the boundary). `x̃, ỹ ∈ [0, 1]`.
    SingleMode {
        /// Peak height.
        amplitude: f64,
        /// Mode counts `[m_x, m_y]`.
        modes: [f64; 2],
    },
    /// Superposition of `modes²` random cosine modes with random phases,
    /// seeded deterministically: every rank (and every rank count)
    /// generates the identical global surface.
    MultiMode {
        /// RMS-ish amplitude of the superposition.
        amplitude: f64,
        /// Maximum mode number per axis.
        modes: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl ToJson for InitialCondition {
    fn to_json(&self) -> Value {
        // Externally tagged, matching serde's derive layout.
        match *self {
            InitialCondition::Flat => Value::Str("Flat".to_string()),
            InitialCondition::SingleMode { amplitude, modes } => Value::Object(vec![(
                "SingleMode".to_string(),
                Value::Object(vec![
                    ("amplitude".to_string(), amplitude.to_json()),
                    ("modes".to_string(), modes.to_json()),
                ]),
            )]),
            InitialCondition::MultiMode {
                amplitude,
                modes,
                seed,
            } => Value::Object(vec![(
                "MultiMode".to_string(),
                Value::Object(vec![
                    ("amplitude".to_string(), amplitude.to_json()),
                    ("modes".to_string(), modes.to_json()),
                    ("seed".to_string(), seed.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for InitialCondition {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) if s == "Flat" => Ok(InitialCondition::Flat),
            Value::Object(pairs) if pairs.len() == 1 => {
                let (tag, body) = &pairs[0];
                match tag.as_str() {
                    "SingleMode" => Ok(InitialCondition::SingleMode {
                        amplitude: field(body, "amplitude")?,
                        modes: field(body, "modes")?,
                    }),
                    "MultiMode" => Ok(InitialCondition::MultiMode {
                        amplitude: field(body, "amplitude")?,
                        modes: field(body, "modes")?,
                        seed: field(body, "seed")?,
                    }),
                    other => Err(JsonError::new(format!(
                        "unknown InitialCondition variant '{other}'"
                    ))),
                }
            }
            other => Err(JsonError::new(format!(
                "expected InitialCondition, got {}",
                other.kind()
            ))),
        }
    }
}

/// One multi-mode term: `amp·cos(2π·mₓ·x̃ + pₓ)·cos(2π·m_y·ỹ + p_y)`.
struct Mode {
    mx: f64,
    my: f64,
    amp: f64,
    px: f64,
    py: f64,
}

/// The `modes²` multi-mode terms drawn from `seed`: a deterministic
/// table, identical on every rank.
fn mode_table(modes: usize, seed: u64) -> Vec<Mode> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut table = Vec::with_capacity(modes * modes);
    for mx in 1..=modes {
        for my in 1..=modes {
            let amp: f64 = rng.gen_range(-1.0..1.0);
            let px: f64 = rng.gen_range(0.0..2.0 * PI);
            let py: f64 = rng.gen_range(0.0..2.0 * PI);
            table.push(Mode {
                mx: mx as f64,
                my: my as f64,
                amp,
                px,
                py,
            });
        }
    }
    table
}

#[cfg(test)]
thread_local! {
    /// Cosines this rank's thread has evaluated while tabulating heights.
    static COSINES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `cos(arg(v))` for every `v` in `vals`: one axis's cosine factors.
fn cosines(vals: &[f64], arg: impl Fn(f64) -> f64) -> Vec<f64> {
    #[cfg(test)]
    COSINES.with(|n| n.set(n.get() + vals.len()));
    vals.iter().map(|&v| arg(v).cos()).collect()
}

/// An initial height field tabulated per axis over one rank's owned
/// block: every term is a column factor times a row factor.
enum Heights {
    Flat,
    /// `h = col[c]·row[r]`.
    Product {
        col: Vec<f64>,
        row: Vec<f64>,
    },
    /// `h = (Σₜ colₜ[c]·rowₜ[r])·norm`, summed in term order.
    Sum {
        cols: Vec<Vec<f64>>,
        rows: Vec<Vec<f64>>,
        norm: f64,
    },
}

impl Heights {
    /// The heights of owned row `i` into `h` (one per owned column).
    fn row(&self, i: usize, h: &mut [f64]) {
        match self {
            Heights::Flat => h.fill(0.0),
            Heights::Product { col, row } => {
                for (h, &a) in h.iter_mut().zip(col) {
                    *h = a * row[i];
                }
            }
            Heights::Sum { cols, rows, norm } => {
                // Start where `Iterator::sum` starts (−0.0), so the sum
                // matches a per-node `.sum::<f64>()` to the sign of zero.
                h.fill(std::iter::empty::<f64>().sum());
                for (col, row) in cols.iter().zip(rows) {
                    let b = row[i];
                    for (h, &a) in h.iter_mut().zip(col) {
                        *h += a * b;
                    }
                }
                for h in h.iter_mut() {
                    *h *= norm;
                }
            }
        }
    }
}

impl InitialCondition {
    /// Check the shape parameters: finite amplitudes and mode counts, and
    /// at least one mode per axis for [`InitialCondition::MultiMode`].
    pub fn validate(&self) -> Result<(), ParamError> {
        match *self {
            InitialCondition::Flat => Ok(()),
            InitialCondition::SingleMode { amplitude, modes } => {
                finite("amplitude", amplitude)?;
                finite("modes[0]", modes[0])?;
                finite("modes[1]", modes[1])
            }
            InitialCondition::MultiMode {
                amplitude, modes, ..
            } => {
                finite("amplitude", amplitude)?;
                if modes == 0 {
                    return Err(ParamError::OutOfRange {
                        name: "modes",
                        value: 0.0,
                        want: "at least 1",
                    });
                }
                Ok(())
            }
        }
    }

    /// Fill `pm`'s position field (and zero its vorticity).
    ///
    /// Node `(r, c)` sits at `coord_of(r, c)`, whose x depends on `c`
    /// alone and whose y on `r` alone, and every height term is a cosine
    /// of x̃ times a cosine of ỹ. So each cosine is evaluated once per
    /// owned column or row, not once per node, and the products and sums
    /// keep the per-node operands and order: the surface is bitwise the
    /// one a per-node evaluation gives.
    pub fn apply(&self, pm: &mut ProblemManager) {
        let (mesh, z, w) = pm.state_mut();
        let [ly, lx] = mesh.lengths();
        let [lo_y, lo_x] = mesh.coord_of(0, 0);
        let periodic = mesh.periodic()[0] && mesh.periodic()[1];
        let xs: Vec<f64> = mesh
            .own_cols()
            .map(|gc| mesh.coord_of(0, gc as i64)[1])
            .collect();
        let ys: Vec<f64> = mesh
            .own_rows()
            .map(|gr| mesh.coord_of(gr as i64, 0)[0])
            .collect();
        let xt: Vec<f64> = xs.iter().map(|&x| (x - lo_x) / lx).collect();
        let yt: Vec<f64> = ys.iter().map(|&y| (y - lo_y) / ly).collect();
        let heights = match *self {
            InitialCondition::Flat => Heights::Flat,
            InitialCondition::SingleMode { amplitude, modes } => {
                let base = if periodic { 2.0 * PI } else { PI };
                let col = cosines(&xt, |xt| base * modes[0] * xt);
                Heights::Product {
                    col: col.into_iter().map(|c| amplitude * c).collect(),
                    row: cosines(&yt, |yt| base * modes[1] * yt),
                }
            }
            InitialCondition::MultiMode {
                amplitude,
                modes,
                seed,
            } => {
                let table = mode_table(modes, seed);
                let cols = table.iter().map(|m| {
                    let col = cosines(&xt, |xt| 2.0 * PI * m.mx * xt + m.px);
                    col.into_iter().map(|c| m.amp * c).collect()
                });
                let rows = table
                    .iter()
                    .map(|m| cosines(&yt, |yt| 2.0 * PI * m.my * yt + m.py));
                Heights::Sum {
                    cols: cols.collect(),
                    rows: rows.collect(),
                    norm: amplitude / (modes as f64),
                }
            }
        };

        let mut h = vec![0.0; xs.len()];
        let rows = mesh.owned_rows_mut(z).zip(mesh.owned_rows_mut(w));
        for (i, (zr, wr)) in rows.enumerate() {
            heights.row(i, &mut h);
            for ((node, &x), &h) in zr.chunks_exact_mut(3).zip(&xs).zip(&h) {
                node.copy_from_slice(&[x, ys[i], h]);
            }
            wr.fill(0.0);
        }
    }
}

#[cfg(test)]
mod per_node;

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_comm::World;
    use beatnik_mesh::{BoundaryCondition, SurfaceMesh};

    fn pm_with(
        comm: &beatnik_comm::Communicator,
        periodic: bool,
        n: usize,
    ) -> ProblemManager {
        let per = [periodic; 2];
        let mesh = SurfaceMesh::new(comm, [n, n], per, 2, [-1.0, -1.0], [1.0, 1.0]);
        let bc = if periodic {
            BoundaryCondition::Periodic { periods: [2.0, 2.0] }
        } else {
            BoundaryCondition::Free
        };
        ProblemManager::new(mesh, bc)
    }

    #[test]
    fn flat_interface_is_reference_plane() {
        World::builder(1).run(|comm| {
            let mut pm = pm_with(&comm, true, 8);
            InitialCondition::Flat.apply(&mut pm);
            for (lr, lc, gr, gc) in pm.mesh().owned_indices() {
                let c = pm.mesh().coord_of(gr as i64, gc as i64);
                assert_eq!(pm.z().node(lr, lc), &[c[1], c[0], 0.0]);
                assert_eq!(pm.w().node(lr, lc), &[0.0, 0.0]);
            }
        });
    }

    #[test]
    fn single_mode_peaks_at_amplitude() {
        World::builder(1).run(|comm| {
            let mut pm = pm_with(&comm, true, 16);
            InitialCondition::SingleMode {
                amplitude: 0.05,
                modes: [1.0, 1.0],
            }
            .apply(&mut pm);
            let max = pm
                .mesh()
                .owned_indices()
                .map(|(lr, lc, _, _)| pm.z().get(lr, lc, 2))
                .fold(f64::MIN, f64::max);
            assert!((max - 0.05).abs() < 1e-12);
        });
    }

    #[test]
    fn single_mode_open_boundary_has_zero_slope_at_edges() {
        World::builder(1).run(|comm| {
            let mut pm = pm_with(&comm, false, 17);
            InitialCondition::SingleMode {
                amplitude: 0.1,
                modes: [1.0, 1.0],
            }
            .apply(&mut pm);
            // cos(π·x̃) has extrema (zero slope) at x̃ = 0 and 1: compare
            // edge and adjacent interior values.
            let h = pm.mesh().halo();
            let edge = pm.z().get(h + 8, h, 2);
            let inner = pm.z().get(h + 8, h + 1, 2);
            // slope between first two columns is O(dx²) of the mode.
            assert!((edge - inner).abs() < 0.1 * 0.05);
        });
    }

    #[test]
    fn multimode_is_identical_across_rank_counts() {
        let ic = InitialCondition::MultiMode {
            amplitude: 0.02,
            modes: 4,
            seed: 42,
        };
        // 12 × 12 splits evenly over 4 ranks; 13 × 11 splits evenly over
        // none of 2, 3, 4 or 6.
        for global in [[12, 12], [13, 11]] {
            let gather = |p: usize| -> Vec<(usize, usize, f64)> {
                let out = World::builder(p).run(move |comm| {
                    let mesh =
                        SurfaceMesh::new(&comm, global, [true; 2], 2, [-1.0, -1.0], [1.0, 1.0]);
                    let bc = BoundaryCondition::Periodic {
                        periods: [2.0, 2.0],
                    };
                    let mut pm = ProblemManager::new(mesh, bc);
                    ic.apply(&mut pm);
                    let rows: Vec<(usize, usize, f64)> = pm
                        .mesh()
                        .owned_indices()
                        .map(|(lr, lc, gr, gc)| (gr, gc, pm.z().get(lr, lc, 2)))
                        .collect();
                    comm.allgather(&rows)
                });
                let mut all: Vec<(usize, usize, f64)> = out.into_iter().next().unwrap();
                all.sort_by_key(|a| (a.0, a.1));
                all.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));
                all
            };
            let s1 = gather(1);
            assert_eq!(s1.len(), global[0] * global[1]);
            for p in [2, 3, 4, 6] {
                assert_eq!(s1, gather(p), "{global:?} at {p} ranks");
            }
        }
    }

    fn bits(f: &beatnik_mesh::Field) -> Vec<u64> {
        f.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A 12 × 10 periodic and a 16 × 9 open mesh, both with a non-zero
    /// lower corner and `dy ≠ dx`, their fields full of garbage: `apply`
    /// must overwrite every owned node and leave the halos alone.
    fn awkward_pms(comm: &beatnik_comm::Communicator) -> Vec<ProblemManager> {
        let (lo, hi) = ([-0.5, 0.25], [1.5, 1.0]);
        let periodic = SurfaceMesh::new(comm, [12, 10], [true; 2], 2, lo, hi);
        let open = SurfaceMesh::new(comm, [16, 9], [false; 2], 2, lo, hi);
        let periods = [hi[0] - lo[0], hi[1] - lo[1]];
        let mut pms = vec![
            ProblemManager::new(periodic, BoundaryCondition::Periodic { periods }),
            ProblemManager::new(open, BoundaryCondition::Free),
        ];
        for pm in &mut pms {
            let (_, z, w) = pm.state_mut();
            z.fill(-3.5);
            w.fill(-3.5);
        }
        pms
    }

    #[test]
    fn tabulated_surface_equals_per_node_reference_bitwise() {
        let mut conditions = vec![
            InitialCondition::Flat,
            InitialCondition::SingleMode {
                amplitude: 0.07,
                modes: [3.0, 2.0],
            },
        ];
        for modes in [1, 3, 4] {
            for seed in [7, 42] {
                conditions.push(InitialCondition::MultiMode {
                    amplitude: 0.02,
                    modes,
                    seed,
                });
            }
        }
        for p in [1usize, 2, 3, 4, 6] {
            let conditions = conditions.clone();
            World::builder(p).run(move |comm| {
                for ic in &conditions {
                    let pairs = awkward_pms(&comm).into_iter().zip(awkward_pms(&comm));
                    for (mut pm, mut reference) in pairs {
                        COSINES.with(|n| n.set(0));
                        ic.apply(&mut pm);
                        let cosines = COSINES.with(|n| n.get());
                        ic.apply_per_node(&mut reference);
                        let what = format!("{ic:?} on {:?} at {p} ranks", pm.mesh().periodic());
                        assert_eq!(bits(pm.z()), bits(reference.z()), "z: {what}");
                        assert_eq!(bits(pm.w()), bits(reference.w()), "w: {what}");
                        // One cosine per owned row and column per term,
                        // none per node.
                        let axes = pm.mesh().own_rows().len() + pm.mesh().own_cols().len();
                        let want = match *ic {
                            InitialCondition::Flat => 0,
                            InitialCondition::SingleMode { .. } => axes,
                            InitialCondition::MultiMode { modes, .. } => modes * modes * axes,
                        };
                        assert_eq!(cosines, want, "cosines: {what}");
                    }
                }
            });
        }
    }

    #[test]
    fn invalid_conditions_are_rejected() {
        assert!(InitialCondition::Flat.validate().is_ok());
        let multi = |amplitude, modes| InitialCondition::MultiMode {
            amplitude,
            modes,
            seed: 1,
        };
        let single = |amplitude, modes| InitialCondition::SingleMode { amplitude, modes };
        assert!(multi(0.02, 1).validate().is_ok());
        let zero = ParamError::OutOfRange {
            name: "modes",
            value: 0.0,
            want: "at least 1",
        };
        assert_eq!(multi(0.02, 0).validate(), Err(zero));
        for bad in [f64::NAN, f64::INFINITY] {
            for ic in [
                multi(bad, 4),
                single(bad, [1.0, 1.0]),
                single(0.1, [1.0, bad]),
            ] {
                let err = ic.validate();
                assert!(matches!(err, Err(ParamError::NonFinite { .. })), "{ic:?}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        World::builder(1).run(|comm| {
            let sample = |seed: u64| {
                let mut pm = pm_with(&comm, true, 8);
                InitialCondition::MultiMode {
                    amplitude: 0.02,
                    modes: 3,
                    seed,
                }
                .apply(&mut pm);
                pm.z().get(4, 4, 2)
            };
            assert_ne!(sample(1), sample(2));
        });
    }
}
