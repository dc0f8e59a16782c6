//! The solver's algorithm name.
//!
//! Howard's policy iteration is the one maximum-cycle-ratio solver, and it
//! lives in [`super::mcr`]. [`howard_mcr`] is the same function under the
//! algorithm's name: it returns exactly what [`maximum_cycle_ratio`]
//! returns.

use super::mcr::{maximum_cycle_ratio, McrSolution};
use super::{EventGraph, McrError};

/// Computes the maximum cycle ratio by policy iteration — identical to
/// [`maximum_cycle_ratio`].
///
/// # Errors
///
/// [`McrError::TokenFreeCycle`] when a token-free positive-delay cycle makes
/// the period infinite.
pub fn howard_mcr(g: &EventGraph) -> Result<McrSolution, McrError> {
    maximum_cycle_ratio(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::mcr::brute_force_mcr;
    use crate::perf::{EventArc, EventVertex};
    use crate::NodeId;

    fn graph(n: usize, arcs: &[(usize, usize, f64, u32)]) -> EventGraph {
        EventGraph::new(
            (0..n)
                .map(|i| EventVertex {
                    node: NodeId::from_index(i / 2),
                    plus: i % 2 == 0,
                })
                .collect(),
            arcs.iter()
                .map(|&(from, to, weight, tokens)| EventArc {
                    from,
                    to,
                    weight,
                    tokens,
                })
                .collect(),
        )
    }

    #[test]
    fn simple_two_cycle_graph() {
        let g = graph(
            4,
            &[
                (0, 1, 2.0, 1),
                (1, 0, 2.0, 1),
                (2, 3, 9.0, 1),
                (3, 2, 1.0, 1),
                (1, 2, 1.0, 1),
            ],
        );
        let sol = howard_mcr(&g).unwrap();
        assert!((sol.ratio - 5.0).abs() < 1e-6, "ratio {}", sol.ratio);
    }

    #[test]
    fn acyclic_graph_has_zero_ratio() {
        let g = graph(4, &[(0, 1, 3.0, 1), (1, 2, 3.0, 0)]);
        let sol = howard_mcr(&g).unwrap();
        assert_eq!(sol.ratio, 0.0);
        assert!(sol.cycle.is_empty());
    }

    #[test]
    fn token_free_cycle_errors() {
        let g = graph(2, &[(0, 1, 1.0, 0), (1, 0, 2.0, 0)]);
        assert!(howard_mcr(&g).is_err());
    }

    /// The alias returns the one solver's answer field for field, and on
    /// integer weights that answer is brute force's, bit for bit.
    #[test]
    fn agrees_with_maximum_cycle_ratio_and_brute_force() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..30 {
            let n = 8;
            let mut arcs = Vec::new();
            for _ in 0..16 {
                let from = (rnd() % n as u64) as usize;
                let to = (rnd() % n as u64) as usize;
                let weight = (rnd() % 12) as f64;
                let tokens = (rnd() % 2 + 1) as u32;
                arcs.push((from, to, weight, tokens));
            }
            let g = graph(n, &arcs);
            let Some(brute) = brute_force_mcr(&g, 16) else {
                continue;
            };
            let howard = howard_mcr(&g).unwrap();
            let one = maximum_cycle_ratio(&g).unwrap();
            assert_eq!(howard.ratio.to_bits(), one.ratio.to_bits(), "case {case}");
            assert_eq!(howard.cycle, one.cycle, "case {case}");
            assert_eq!(howard.cycle_arcs, one.cycle_arcs, "case {case}");
            assert_eq!(
                howard.ratio.to_bits(),
                brute.to_bits(),
                "case {case}: howard {} vs brute {brute}",
                howard.ratio
            );
        }
    }
}
