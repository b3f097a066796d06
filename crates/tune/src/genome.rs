//! Genomes over the knob registry's discrete choice grids.
//!
//! A genome is one choice index per searchable knob, in registry order.
//! The searchable subspace is the registry's *pipeline* knobs: the machine
//! knobs are excluded so every candidate is scored on the same evaluation
//! machine and cycle counts stay comparable. Genomes are canonicalized
//! before use — while a pass switch (`if_convert.enable`, `meld.enable`) is
//! off, the genes of the knobs that pass's stage hashes are pinned to their
//! defaults, so configurations that compile identically also hash (and
//! dedupe) identically. Both the switches and the gated knobs come from the
//! knob table's rows.

use epic_bench::knobs::{ConfigDelta, KnobSpace, KnobSpec, TunedConfig};
use epic_bench::KnobValue;
use rand::rngs::StdRng;
use rand::Rng;

/// One choice index per searchable knob, aligned with
/// [`SearchSpace::knobs`].
pub type Genome = Vec<usize>;

/// One searchable knob: its registry spec plus the index of the default
/// value inside the spec's choice grid.
#[derive(Debug)]
pub struct SearchKnob {
    /// The registry spec.
    pub spec: &'static KnobSpec,
    /// Position of `spec.default` in `spec.choices`.
    pub default_choice: usize,
}

/// The searchable subspace of the knob registry.
#[derive(Debug)]
pub struct SearchSpace {
    space: &'static KnobSpace,
    knobs: Vec<SearchKnob>,
    /// `(switch position, gated positions)` per optional pass: genes of the
    /// knobs the switched stage hashes are dead while the switch is off.
    gates: Vec<(usize, Vec<usize>)>,
}

impl SearchSpace {
    /// The pipeline search space: every registry knob except the machine's.
    pub fn pipeline() -> SearchSpace {
        let space = KnobSpace::global();
        let knobs: Vec<SearchKnob> = space
            .specs()
            .iter()
            .filter(|s| !s.is_machine())
            .map(|spec| {
                let default_choice = spec
                    .choices
                    .iter()
                    .position(|c| *c == spec.default)
                    .expect("registry invariant: default is in choices");
                SearchKnob { spec, default_choice }
            })
            .collect();
        let gates = (0..knobs.len())
            .filter_map(|switch| {
                let stage = knobs[switch].spec.switches?;
                let gated = (0..knobs.len()).filter(|&i| knobs[i].spec.stages.contains(&stage));
                Some((switch, gated.collect()))
            })
            .collect();
        SearchSpace { space, knobs, gates }
    }

    /// The underlying registry.
    pub fn knob_space(&self) -> &'static KnobSpace {
        self.space
    }

    /// The searchable knobs, in genome order.
    pub fn knobs(&self) -> &[SearchKnob] {
        &self.knobs
    }

    /// The all-defaults genome (the paper configuration).
    pub fn default_genome(&self) -> Genome {
        self.knobs.iter().map(|k| k.default_choice).collect()
    }

    /// A uniformly random (canonical) genome.
    pub fn random_genome(&self, rng: &mut StdRng) -> Genome {
        let mut g: Genome =
            self.knobs.iter().map(|k| rng.gen_range(0..k.spec.choices.len())).collect();
        self.canonicalize(&mut g);
        g
    }

    /// Pins genes that cannot affect the configuration to their defaults:
    /// with a pass switch off, the genes its stage hashes are dead, and
    /// leaving them free would make one configuration hash as many distinct
    /// genomes.
    pub fn canonicalize(&self, g: &mut Genome) {
        for (enable_pos, gated) in &self.gates {
            let enable = self.knobs[*enable_pos].spec.choices[g[*enable_pos]];
            if enable == KnobValue::Bool(false) {
                for &i in gated {
                    g[i] = self.knobs[i].default_choice;
                }
            }
        }
    }

    /// Mutates `parent`: each gene moves to a different random choice with
    /// probability 1/3, and the child is guaranteed to differ canonically
    /// from the parent (a mutation landing only on dead genes is retried).
    pub fn mutate(&self, parent: &Genome, rng: &mut StdRng) -> Genome {
        for _ in 0..16 {
            let mut child = parent.clone();
            for (i, k) in self.knobs.iter().enumerate() {
                let n = k.spec.choices.len();
                if n > 1 && rng.gen_range(0u32..3) == 0 {
                    let step = rng.gen_range(1..n);
                    child[i] = (child[i] + step) % n;
                }
            }
            self.canonicalize(&mut child);
            if child != *parent {
                return child;
            }
        }
        // Pathologically unlucky streak: fall back to a fresh sample.
        self.random_genome(rng)
    }

    /// The delta a genome denotes: every gene whose choice differs from
    /// the knob's default.
    pub fn delta(&self, g: &Genome) -> ConfigDelta {
        let mut delta = ConfigDelta::new();
        for (k, &choice) in self.knobs.iter().zip(g) {
            let v = k.spec.choices[choice];
            if v != k.spec.default {
                delta
                    .set(self.space, k.spec.name, v)
                    .expect("registry invariant: choices validate");
            }
        }
        delta
    }

    /// Materializes a genome to a concrete configuration.
    pub fn config(&self, g: &Genome) -> TunedConfig {
        self.delta(g).apply(self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_bench::PipelineConfig;
    use rand::SeedableRng;

    #[test]
    fn pipeline_space_excludes_machine_knobs() {
        let s = SearchSpace::pipeline();
        assert_eq!(s.knobs().len(), 18);
        assert!(s.knobs().iter().all(|k| !k.spec.name.starts_with("machine.")));
        // One gate per optional pass, over that pass's three parameters.
        assert_eq!(s.gates.len(), 2);
        assert!(s.gates.iter().all(|(_, gated)| gated.len() == 3));
        // The meld and cpr.enable knobs are searchable.
        assert!(s.knobs().iter().any(|k| k.spec.name == "meld.enable"));
        assert!(s.knobs().iter().any(|k| k.spec.name == "cpr.enable"));
    }

    #[test]
    fn default_genome_is_the_paper_config() {
        let s = SearchSpace::pipeline();
        let g = s.default_genome();
        assert!(s.delta(&g).is_empty());
        let cfg = s.config(&g);
        assert_eq!(cfg.pipeline.config_hash(), PipelineConfig::default().config_hash());
    }

    #[test]
    fn canonical_genomes_pin_dead_gated_genes() {
        let s = SearchSpace::pipeline();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let g = s.random_genome(&mut rng);
            let cfg = s.config(&g);
            for (gate, (enable_pos, gated)) in ["if_convert", "meld"].iter().zip(&s.gates) {
                let off = match *gate {
                    "if_convert" => cfg.pipeline.if_convert.is_none(),
                    _ => cfg.pipeline.meld.is_none(),
                };
                assert_eq!(
                    s.knobs[*enable_pos].spec.choices[g[*enable_pos]],
                    KnobValue::Bool(!off)
                );
                if off {
                    for &i in gated {
                        assert_eq!(g[i], s.knobs[i].default_choice, "dead {gate} gene left free");
                    }
                }
            }
        }
    }

    #[test]
    fn mutation_always_changes_the_canonical_genome() {
        let s = SearchSpace::pipeline();
        let mut rng = StdRng::seed_from_u64(11);
        let mut parent = s.default_genome();
        for _ in 0..200 {
            let child = s.mutate(&parent, &mut rng);
            assert_ne!(child, parent);
            parent = child;
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let s = SearchSpace::pipeline();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            assert_eq!(s.random_genome(&mut a), s.random_genome(&mut b));
        }
    }
}
