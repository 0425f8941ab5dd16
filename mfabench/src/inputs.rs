//! Workload inputs, generated from the run's `--seed` alone.
//!
//! The program under test sees only what is built here: designs from
//! `DesignPreset::…::generate`, randomly initialized `ours` checkpoints
//! from `init_checkpoint`, and feature stacks extracted from generated
//! designs under seeded random placements. Every sub-seed is drawn from
//! one SplitMix64 stream, so the same seed gives byte-identical inputs.

use std::path::Path;

use mfaplace_core::loader::init_checkpoint;
use mfaplace_fpga::design::{Design, DesignPreset};
use mfaplace_fpga::features::FeatureStack;
use mfaplace_models::{Arch, ArchSpec};
use mfaplace_rt::rng::SplitMix64;
use mfaplace_tensor::Tensor;

/// Scale divisors (cells, DSP, BRAM) halfway between the `small` and
/// `large` presets of `mfaplace generate`.
pub const MEDIUM: (usize, usize, usize) = (64, 12, 6);
/// The `small` preset of `mfaplace generate`.
pub const SMALL: (usize, usize, usize) = (128, 24, 12);

/// One design and the flow seed it is placed with.
pub struct Case {
    /// The generated design.
    pub design: Design,
    /// Placement seed of every flow or job on this design.
    pub flow_seed: u64,
}

/// Everything a workload's program instance is given.
pub struct Inputs {
    /// Designs to place (empty for the `/predict` workloads).
    pub cases: Vec<Case>,
    /// Feature stacks to predict (empty for the placement workloads).
    pub features: Vec<Tensor>,
    /// The written `ours` checkpoint.
    pub checkpoint: String,
}

impl Inputs {
    /// Generates `variants` designs of each of Design_180 (hotness 0.70)
    /// and Design_120 (0.30) at `scale`, plus an `ours` checkpoint at
    /// `grid` written to `dir`.
    pub fn placement(
        seed: u64,
        scale: (usize, usize, usize),
        variants: usize,
        grid: usize,
        dir: &Path,
    ) -> Result<Inputs, String> {
        let mut rng = SplitMix64::new(seed);
        let mut cases = Vec::new();
        for _ in 0..variants {
            for preset in [DesignPreset::design_180(), DesignPreset::design_120()] {
                let design = preset
                    .with_scale(scale.0, scale.1, scale.2)
                    .generate(rng.next_u64());
                cases.push(Case {
                    design,
                    flow_seed: rng.next_u64() % 1_000_000,
                });
            }
        }
        let checkpoint = write_checkpoint(&mut rng, grid, dir)?;
        Ok(Inputs {
            cases,
            features: Vec::new(),
            checkpoint,
        })
    }

    /// Generates `count` `[6, grid, grid]` feature stacks (small-scale
    /// Design_180/Design_120 under random placements) plus an `ours`
    /// checkpoint at `grid` written to `dir`.
    pub fn features(seed: u64, grid: usize, count: usize, dir: &Path) -> Result<Inputs, String> {
        let mut rng = SplitMix64::new(seed);
        let designs = [DesignPreset::design_180(), DesignPreset::design_120()].map(|p| {
            p.with_scale(SMALL.0, SMALL.1, SMALL.2)
                .generate(rng.next_u64())
        });
        let features = (0..count)
            .map(|i| {
                let design = &designs[i % designs.len()];
                let placement = design.random_placement(rng.next_u64());
                FeatureStack::extract(design, &placement, grid, grid).to_tensor()
            })
            .collect();
        let checkpoint = write_checkpoint(&mut rng, grid, dir)?;
        Ok(Inputs {
            cases: Vec::new(),
            features,
            checkpoint,
        })
    }

    /// FNV-1a 64 over every input byte the program will see.
    #[cfg(test)]
    pub fn fingerprint(&self) -> Result<u64, String> {
        use mfaplace_fpga::io::write_design;
        use mfaplace_serve::protocol::encode_features;

        let mut h = Fnv::default();
        for case in &self.cases {
            h.write(write_design(&case.design).as_bytes());
            h.write(&case.flow_seed.to_le_bytes());
        }
        for x in &self.features {
            h.write(&encode_features(x));
        }
        let ckpt = std::fs::read(&self.checkpoint).map_err(|e| format!("{e}"))?;
        h.write(&ckpt);
        Ok(h.finish())
    }
}

fn write_checkpoint(rng: &mut SplitMix64, grid: usize, dir: &Path) -> Result<String, String> {
    let path = dir.join(format!("ours-g{grid}.mfaw"));
    let path = path.to_str().ok_or("non-UTF-8 work directory")?.to_owned();
    init_checkpoint(&ArchSpec::new(Arch::Ours, grid), rng.next_u64(), &path)?;
    Ok(path)
}

/// FNV-1a 64, for fingerprints of inputs and outputs.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Hash of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_tmp")
            .join(format!("inputs-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fingerprints(make: impl Fn(u64, &Path) -> Inputs, name: &str) -> [u64; 3] {
        let dirs = [0, 1, 2].map(|i| temp_dir(&format!("{name}{i}")));
        let out = [(7, &dirs[0]), (7, &dirs[1]), (8, &dirs[2])]
            .map(|(seed, dir)| make(seed, dir).fingerprint().unwrap());
        for dir in dirs {
            std::fs::remove_dir_all(dir).unwrap();
        }
        out
    }

    #[test]
    fn placement_inputs_follow_the_seed() {
        let [a, b, c] = fingerprints(
            |seed, dir| Inputs::placement(seed, SMALL, 2, 32, dir).unwrap(),
            "place",
        );
        assert_eq!(a, b, "same seed must give byte-identical inputs");
        assert_ne!(a, c, "a different seed must give different inputs");
    }

    #[test]
    fn feature_inputs_follow_the_seed() {
        let [a, b, c] = fingerprints(
            |seed, dir| Inputs::features(seed, 16, 4, dir).unwrap(),
            "predict",
        );
        assert_eq!(a, b, "same seed must give byte-identical inputs");
        assert_ne!(a, c, "a different seed must give different inputs");
    }
}
