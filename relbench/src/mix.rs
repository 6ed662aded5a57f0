//! The `serve_mixed` request mix: a seeded generator of daemon operations,
//! and the hot/fresh classifier that labels each `predict` by whether its
//! binding set was already sent since that catalog entry's last swap.
//!
//! The generator alone decides what is sent, so the same seed always yields
//! the same operation sequence; a run consumes as much of it as fits in its
//! measuring window.

use std::collections::HashSet;

/// A `load` hot-swap is issued as every `SWAP_EVERY`-th operation. Like
/// [`HOT_SET`] and [`SHARES`], an assumption that no recorded traffic backs.
pub const SWAP_EVERY: u64 = 250;
/// Binding sets per small model that hot predicts draw from.
pub const HOT_SET: usize = 8;
/// Grid points of a mixed-in `sweep`.
pub const SWEEP_STEPS: usize = 16;

/// Shares of the non-swap operations. No recorded traffic backs them: they
/// are the benchmark's assumption of a read-mostly orchestrator, fixed so
/// that every run sends the same mix. Each run prints the share of requests
/// and of client latency that every [`Kind`] takes.
pub const SHARES: [(Kind, f64); 4] = [
    (Kind::HotPredict, 0.77),
    (Kind::FreshSmall, 0.15),
    (Kind::FreshLarge, 0.03),
    (Kind::Sweep, 0.05),
];

/// What the generator meant an operation to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `predict` on a small model with a binding set from its hot set.
    HotPredict,
    /// `predict` on a small model with never-drawn bindings.
    FreshSmall,
    /// `predict` on the 1024-state chain or the shared DAG with never-drawn
    /// bindings.
    FreshLarge,
    /// A short one-parameter `sweep` on a small model.
    Sweep,
    /// A numeric-only `load` of a small model.
    Swap,
}

impl Kind {
    /// Every kind, in a fixed order.
    pub const ALL: [Kind; 5] = [
        Kind::HotPredict,
        Kind::FreshSmall,
        Kind::FreshLarge,
        Kind::Sweep,
        Kind::Swap,
    ];

    /// The kind's name in printed metrics.
    pub fn label(self) -> &'static str {
        match self {
            Kind::HotPredict => "hot_predict",
            Kind::FreshSmall => "fresh_small",
            Kind::FreshLarge => "fresh_large",
            Kind::Sweep => "sweep",
            Kind::Swap => "swap",
        }
    }
}

/// One catalog entry the mix addresses.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Catalog name.
    pub name: &'static str,
    /// Target service.
    pub service: &'static str,
    /// Formal parameters with the range bindings are drawn from.
    pub params: Vec<(String, f64, f64)>,
    /// Small models take hot, fresh-small, sweep and swap traffic; large
    /// ones take fresh-large predicts only.
    pub small: bool,
}

/// The daemon catalog: the paper's §4 search assembly (local and remote),
/// the web shop sample, the 1024-state chain with 8 parameters and the
/// depth-6 shared DAG.
pub fn catalog_specs() -> Vec<ModelSpec> {
    let search = || {
        vec![
            ("elem".to_string(), 1.0, 16.0),
            ("list".to_string(), 64.0, 8192.0),
            ("res".to_string(), 1.0, 4.0),
        ]
    };
    vec![
        ModelSpec {
            name: "paper_local",
            service: "search",
            params: search(),
            small: true,
        },
        ModelSpec {
            name: "paper_remote",
            service: "search",
            params: search(),
            small: true,
        },
        ModelSpec {
            name: "webshop",
            service: "checkout",
            params: vec![
                ("cart".to_string(), 1.0, 64.0),
                ("amount".to_string(), 10.0, 1000.0),
            ],
            small: true,
        },
        ModelSpec {
            name: "chain",
            service: "app",
            params: (0..8).map(|j| (format!("v{j}"), 1.0, 2.0)).collect(),
            small: false,
        },
        ModelSpec {
            name: "dag",
            service: "app",
            params: vec![("work".to_string(), 1e3, 1e6)],
            small: false,
        },
    ]
}

/// SplitMix64: a tiny seeded generator, so the mix does not depend on any
/// external RNG's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// One generated daemon operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `predict` of `model` with `values` in the spec's parameter order.
    Predict {
        /// Generator intent (hot, fresh-small or fresh-large).
        kind: Kind,
        /// Index into [`catalog_specs`].
        model: usize,
        /// Binding values, in the model's parameter order.
        values: Vec<f64>,
    },
    /// `sweep` of parameter `param` over its whole range; the other
    /// parameters are bound to `values`.
    Sweep {
        /// Index into [`catalog_specs`].
        model: usize,
        /// Swept parameter index.
        param: usize,
        /// Binding values (the swept one is ignored).
        values: Vec<f64>,
    },
    /// Numeric-only `load` of `model` at numeric `variant`.
    Swap {
        /// Index into [`catalog_specs`].
        model: usize,
        /// Which numeric variant of the source to load (0 or 1).
        variant: usize,
    },
}

impl Op {
    /// The generator's intent for this operation.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Predict { kind, .. } => *kind,
            Op::Sweep { .. } => Kind::Sweep,
            Op::Swap { .. } => Kind::Swap,
        }
    }

    /// The catalog entry the operation addresses.
    pub fn model(&self) -> usize {
        match self {
            Op::Predict { model, .. } | Op::Sweep { model, .. } | Op::Swap { model, .. } => *model,
        }
    }
}

/// Writes `x` as a JSON number that parses back to the same bits.
pub fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "non-finite binding {x}");
    format!("{x:?}")
}

/// The JSON `bindings` object for `values` in `spec`'s parameter order,
/// skipping parameter `skip`.
pub fn bindings_json(spec: &ModelSpec, values: &[f64], skip: Option<usize>) -> String {
    let fields: Vec<String> = spec
        .params
        .iter()
        .zip(values)
        .enumerate()
        .filter(|(i, _)| Some(*i) != skip)
        .map(|(_, ((name, _, _), v))| format!("\"{name}\":{}", json_number(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Seeded operation generator over [`catalog_specs`].
#[derive(Debug, Clone)]
pub struct MixGenerator {
    rng: Rng,
    specs: Vec<ModelSpec>,
    hot: Vec<Vec<Vec<f64>>>,
    issued: u64,
    swaps: Vec<usize>,
}

impl MixGenerator {
    /// A generator over `specs`; every random choice flows from `seed`.
    pub fn new(specs: Vec<ModelSpec>, seed: u64) -> MixGenerator {
        let mut rng = Rng::new(seed);
        let hot = specs
            .iter()
            .map(|spec| {
                if spec.small {
                    (0..HOT_SET).map(|_| draw(spec, &mut rng)).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let swaps = vec![0; specs.len()];
        MixGenerator {
            rng,
            specs,
            hot,
            issued: 0,
            swaps,
        }
    }

    /// The hot binding sets of `model` (empty for large models).
    pub fn hot_set(&self, model: usize) -> &[Vec<f64>] {
        &self.hot[model]
    }

    fn small_models(&self) -> Vec<usize> {
        (0..self.specs.len())
            .filter(|&i| self.specs[i].small)
            .collect()
    }

    /// The next operation of the sequence.
    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let small = self.small_models();
        if self.issued.is_multiple_of(SWAP_EVERY) {
            // Swaps rotate over the small models, alternating variants.
            let model = small[(self.issued / SWAP_EVERY) as usize % small.len()];
            self.swaps[model] += 1;
            return Op::Swap {
                model,
                variant: self.swaps[model] % 2,
            };
        }
        let u = self.rng.unit();
        let mut acc = 0.0;
        let mut kind = SHARES[SHARES.len() - 1].0;
        for (k, share) in SHARES {
            acc += share;
            if u < acc {
                kind = k;
                break;
            }
        }
        match kind {
            Kind::HotPredict => {
                let model = small[self.rng.below(small.len())];
                let values = self.hot[model][self.rng.below(HOT_SET)].clone();
                Op::Predict {
                    kind,
                    model,
                    values,
                }
            }
            Kind::FreshSmall => {
                let model = small[self.rng.below(small.len())];
                let values = draw(&self.specs[model], &mut self.rng);
                Op::Predict {
                    kind,
                    model,
                    values,
                }
            }
            Kind::FreshLarge => {
                let large: Vec<usize> = (0..self.specs.len())
                    .filter(|&i| !self.specs[i].small)
                    .collect();
                let model = large[self.rng.below(large.len())];
                let values = draw(&self.specs[model], &mut self.rng);
                Op::Predict {
                    kind,
                    model,
                    values,
                }
            }
            Kind::Sweep | Kind::Swap => {
                let model = small[self.rng.below(small.len())];
                let param = self.rng.below(self.specs[model].params.len());
                let values = draw(&self.specs[model], &mut self.rng);
                Op::Sweep {
                    model,
                    param,
                    values,
                }
            }
        }
    }
}

fn draw(spec: &ModelSpec, rng: &mut Rng) -> Vec<f64> {
    spec.params
        .iter()
        .map(|(_, lo, hi)| rng.range(*lo, *hi))
        .collect()
}

/// Labels predicts hot or fresh: hot when the same binding set was already
/// sent to the same catalog entry since its last swap (a swap publishes a
/// new entry with an empty value cache).
#[derive(Debug, Clone)]
pub struct HotTracker {
    seen: Vec<HashSet<Vec<u64>>>,
}

impl HotTracker {
    /// A tracker over `models` catalog entries, nothing seen yet.
    pub fn new(models: usize) -> HotTracker {
        HotTracker {
            seen: vec![HashSet::new(); models],
        }
    }

    /// Records that `values` are sent to `model`; returns whether they were
    /// already sent since the entry's last swap.
    pub fn classify(&mut self, model: usize, values: &[f64]) -> bool {
        let key: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        !self.seen[model].insert(key)
    }

    /// Forgets everything sent to `model`.
    pub fn swap(&mut self, model: usize) {
        self.seen[model].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, n: usize) -> Vec<Op> {
        let mut g = MixGenerator::new(catalog_specs(), seed);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        assert_eq!(ops(7, 5000), ops(7, 5000));
        assert_ne!(ops(7, 5000), ops(8, 5000));
    }

    #[test]
    fn generator_hits_its_declared_shares() {
        let n = 200_000;
        let all = ops(11, n);
        let swaps = all.iter().filter(|o| o.kind() == Kind::Swap).count();
        assert_eq!(swaps as u64, n as u64 / SWAP_EVERY);
        for (i, op) in all.iter().enumerate() {
            let due = (i as u64 + 1).is_multiple_of(SWAP_EVERY);
            assert_eq!(op.kind() == Kind::Swap, due, "swap out of place at {i}");
        }
        let rest = (n - swaps) as f64;
        for (kind, share) in SHARES {
            let got = all.iter().filter(|o| o.kind() == kind).count() as f64 / rest;
            assert!(
                (got - share).abs() < 0.005,
                "{kind:?}: share {got} vs declared {share}"
            );
        }
    }

    #[test]
    fn ops_address_the_right_models() {
        let g = MixGenerator::new(catalog_specs(), 3);
        let specs = catalog_specs();
        for op in ops(3, 20_000) {
            let spec = &specs[op.model()];
            match &op {
                Op::Predict { kind, values, .. } => {
                    assert_eq!(spec.small, *kind != Kind::FreshLarge);
                    if *kind == Kind::HotPredict {
                        assert!(g.hot_set(op.model()).contains(values));
                    }
                    for ((_, lo, hi), v) in spec.params.iter().zip(values) {
                        assert!(lo <= v && v < hi);
                    }
                }
                Op::Sweep { param, .. } => {
                    assert!(spec.small);
                    assert!(*param < spec.params.len());
                }
                Op::Swap { variant, .. } => {
                    assert!(spec.small);
                    assert!(*variant < 2);
                }
            }
        }
    }

    #[test]
    fn classification_resets_on_swap() {
        let mut t = HotTracker::new(2);
        assert!(!t.classify(0, &[1.0, 2.0]), "first sight is fresh");
        assert!(t.classify(0, &[1.0, 2.0]), "repeat is hot");
        assert!(!t.classify(1, &[1.0, 2.0]), "other entries are separate");
        t.swap(0);
        assert!(!t.classify(0, &[1.0, 2.0]), "a swap empties the entry");
        assert!(t.classify(0, &[1.0, 2.0]));
        assert!(t.classify(1, &[1.0, 2.0]), "a swap leaves other entries");
        // Bit-exact keys: -0.0 and 0.0 are different binding sets.
        assert!(!t.classify(1, &[-0.0]));
        assert!(!t.classify(1, &[0.0]));
    }

    #[test]
    fn bindings_round_trip_bitwise() {
        let spec = &catalog_specs()[2];
        let values = [1.0 / 3.0, 123.456_789_012_345_67];
        let json = bindings_json(spec, &values, None);
        assert_eq!(
            json,
            format!("{{\"cart\":{:?},\"amount\":{:?}}}", values[0], values[1])
        );
        for v in values {
            let back: f64 = json_number(v).parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert_eq!(
            bindings_json(spec, &values, Some(0)),
            format!("{{\"amount\":{:?}}}", values[1])
        );
    }
}
