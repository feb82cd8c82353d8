//! Random structured AND/OR applications.
//!
//! Used by the property-based tests (deadline guarantees must hold on *any*
//! valid application, not just the two paper workloads) and by ablation
//! sweeps that need many distinct graph shapes.
//!
//! Generation is structural — a random [`Segment`] tree — so every produced
//! application satisfies the OR-seriality restriction by construction.
//! `Par` arms deliberately contain no `Branch` nodes: two branches in
//! sibling arms would be rejected by validation (two concurrent
//! synchronization points), and avoiding them entirely keeps generation
//! total.

use andor_graph::Segment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Shape parameters for a random application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomAppParams {
    /// Maximum nesting depth of the segment tree.
    pub max_depth: usize,
    /// Maximum children of a `Seq`.
    pub max_seq_len: usize,
    /// Maximum arms of a `Par`.
    pub max_par_width: usize,
    /// Maximum arms of a `Branch`.
    pub max_branch_arms: usize,
    /// WCETs are drawn uniformly from this range (ms).
    pub wcet_range: (f64, f64),
    /// ACET/WCET ratio per task, drawn uniformly from this range.
    pub alpha_range: (f64, f64),
}

impl Default for RandomAppParams {
    fn default() -> Self {
        Self {
            max_depth: 3,
            max_seq_len: 4,
            max_par_width: 3,
            max_branch_arms: 3,
            wcet_range: (1.0, 10.0),
            alpha_range: (0.3, 1.0),
        }
    }
}

impl RandomAppParams {
    /// Generates a random application.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Segment {
        let mut counter = 0usize;
        let seg = self.gen_seg(rng, self.max_depth, true, &mut counter);
        // Guarantee at least one task so the graph is non-trivial.
        if counter == 0 {
            return self.gen_task(rng, &mut counter);
        }
        seg
    }

    /// Generates `segments` random applications from one RNG seeded with
    /// `seed` and runs them one after another (`Segment::seq`): a long
    /// chain whose OR-path count multiplies along it, reaching the
    /// scale where the analyses stop enumerating paths.
    pub fn chained(&self, seed: u64, segments: usize) -> Segment {
        let mut rng = StdRng::seed_from_u64(seed);
        Segment::seq((0..segments).map(|_| self.generate(&mut rng)))
    }

    fn gen_task<R: Rng + ?Sized>(&self, rng: &mut R, counter: &mut usize) -> Segment {
        let wcet = rng.gen_range(self.wcet_range.0..=self.wcet_range.1);
        let alpha = rng.gen_range(self.alpha_range.0..=self.alpha_range.1);
        let name = format!("t{}", *counter);
        *counter += 1;
        Segment::task(name, wcet, (alpha * wcet).max(1e-3))
    }

    /// `allow_branch` is false inside `Par` arms (see module docs).
    fn gen_seg<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        depth: usize,
        allow_branch: bool,
        counter: &mut usize,
    ) -> Segment {
        if depth == 0 {
            return self.gen_task(rng, counter);
        }
        let choice = rng.gen_range(0..if allow_branch { 4 } else { 3 });
        match choice {
            0 => self.gen_task(rng, counter),
            1 => {
                let n = rng.gen_range(1..=self.max_seq_len);
                Segment::seq((0..n).map(|_| self.gen_seg(rng, depth - 1, allow_branch, counter)))
            }
            2 => {
                let n = rng.gen_range(2..=self.max_par_width.max(2));
                Segment::par((0..n).map(|_| self.gen_seg(rng, depth - 1, false, counter)))
            }
            _ => {
                let n = rng.gen_range(2..=self.max_branch_arms.max(2));
                // Random probabilities normalized to 1.
                let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
                let total: f64 = raw.iter().sum();
                Segment::branch(
                    raw.into_iter()
                        .map(|p| (p / total, self.gen_seg(rng, depth - 1, true, counter))),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::SectionGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_apps_always_lower_and_validate() {
        let wide = RandomAppParams {
            max_depth: 5,
            max_seq_len: 6,
            max_par_width: 5,
            max_branch_arms: 4,
            ..RandomAppParams::default()
        };
        for params in [RandomAppParams::default(), wide] {
            for seed in 0..200 {
                let mut rng = StdRng::seed_from_u64(seed);
                let app = params.generate(&mut rng);
                let g = app.lower().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                SectionGraph::build(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                // Every rule of the collect-all graph check holds.
                assert_eq!(g.errors(), Vec::new(), "seed {seed}");
                assert!(g.num_tasks() >= 1);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let params = RandomAppParams::default();
        let a = params.generate(&mut StdRng::seed_from_u64(7));
        let b = params.generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn deeper_params_make_bigger_graphs_on_average() {
        let small = RandomAppParams {
            max_depth: 1,
            ..Default::default()
        };
        let big = RandomAppParams {
            max_depth: 5,
            ..Default::default()
        };
        let avg = |p: &RandomAppParams| -> f64 {
            (0..50)
                .map(|s| {
                    let mut rng = StdRng::seed_from_u64(s);
                    p.generate(&mut rng).lower().unwrap().num_tasks() as f64
                })
                .sum::<f64>()
                / 50.0
        };
        assert!(avg(&big) > avg(&small));
    }

    #[test]
    fn acet_bounds_respected() {
        let params = RandomAppParams::default();
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = params.generate(&mut rng).lower().unwrap();
            for (_, n) in g.iter() {
                if n.kind.is_computation() {
                    assert!(n.kind.acet() > 0.0 && n.kind.acet() <= n.kind.wcet());
                }
            }
        }
    }
}
