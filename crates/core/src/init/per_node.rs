//! `InitialCondition::apply` as it was before the surface was built from
//! per-axis tables: a height closure evaluated at every owned node, each
//! call computing all of its cosines afresh. Kept as the reference the
//! tabulated surface must equal bit for bit (see the tests in `init.rs`).

use super::{mode_table, InitialCondition};
use crate::problem::ProblemManager;
use std::f64::consts::PI;

impl InitialCondition {
    /// Fill `pm`'s position field (and zero its vorticity), node by node.
    pub(super) fn apply_per_node(&self, pm: &mut ProblemManager) {
        let mesh = pm.mesh();
        let [ly, lx] = mesh.lengths();
        let [lo_y, lo_x] = [mesh.coord_of(0, 0)[0], mesh.coord_of(0, 0)[1]];
        let periodic = mesh.periodic()[0] && mesh.periodic()[1];
        let height: Box<dyn Fn(f64, f64) -> f64> = match *self {
            InitialCondition::Flat => Box::new(|_, _| 0.0),
            InitialCondition::SingleMode { amplitude, modes } => {
                let base = if periodic { 2.0 * PI } else { PI };
                Box::new(move |xt: f64, yt: f64| {
                    amplitude * (base * modes[0] * xt).cos() * (base * modes[1] * yt).cos()
                })
            }
            InitialCondition::MultiMode {
                amplitude,
                modes,
                seed,
            } => {
                let table = mode_table(modes, seed);
                let norm = amplitude / (modes as f64);
                Box::new(move |xt: f64, yt: f64| {
                    table
                        .iter()
                        .map(|m| {
                            m.amp
                                * (2.0 * PI * m.mx * xt + m.px).cos()
                                * (2.0 * PI * m.my * yt + m.py).cos()
                        })
                        .sum::<f64>()
                        * norm
                })
            }
        };

        let coords: Vec<_> = mesh.owned_indices().collect();
        for (lr, lc, gr, gc) in coords {
            let c = pm.mesh().coord_of(gr as i64, gc as i64);
            let (x, y) = (c[1], c[0]);
            let xt = (x - lo_x) / lx;
            let yt = (y - lo_y) / ly;
            let h = height(xt, yt);
            pm.z_mut().set_node(lr, lc, &[x, y, h]);
            pm.w_mut().set_node(lr, lc, &[0.0, 0.0]);
        }
    }
}
