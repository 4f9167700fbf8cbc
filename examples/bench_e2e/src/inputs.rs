//! Seeded inputs. `--seed` changes only the generated data (array contents,
//! which template each corpus subroutine is drawn from, its `simdlen`);
//! every size is a fixed constant of the workload, so two seeds measure the
//! same amount of work.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers;

/// The five `benchmarks/*.f90` templates, with the subroutine name each
/// defines.
pub const TEMPLATES: [(&str, &str); 5] = [
    ("saxpy", layers::SAXPY_F90),
    ("sgesl", layers::SGESL_F90),
    ("dotprod", layers::DOTPROD_F90),
    ("jacobi", layers::JACOBI_F90),
    ("heat", layers::HEAT_F90),
];

const SIMDLENS: [u32; 5] = [2, 4, 8, 10, 16];

/// One subroutine of a corpus unit: which template it instantiates and the
/// name it was given.
#[derive(Clone, Debug)]
pub struct CorpusSub {
    pub template: &'static str,
    pub name: String,
}

/// One generated translation unit.
#[derive(Clone, Debug)]
pub struct CorpusUnit {
    pub source: String,
    pub subs: Vec<CorpusSub>,
}

/// `units` translation units of `subs_per_unit` subroutines each, drawn
/// from [`TEMPLATES`], renamed `<template>_u<unit>_<index>`, with a seeded
/// `simdlen` where the template has a `simd` clause. The first five
/// subroutines of unit 0 cover the five templates in order, so the oracle
/// can run one kernel per template whatever the seed.
pub fn corpus(seed: u64, units: usize, subs_per_unit: usize) -> Vec<CorpusUnit> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0_4b05);
    (0..units)
        .map(|u| {
            let mut source = String::new();
            let mut subs = Vec::with_capacity(subs_per_unit);
            for i in 0..subs_per_unit {
                let pick = if u == 0 && i < TEMPLATES.len() {
                    i
                } else {
                    rng.gen_range(0..TEMPLATES.len())
                };
                let (template, text) = TEMPLATES[pick];
                let name = format!("{template}_u{u}_{i}");
                let simdlen = SIMDLENS[rng.gen_range(0..SIMDLENS.len())];
                source.push_str(&instantiate(template, text, &name, simdlen));
                source.push('\n');
                subs.push(CorpusSub { template, name });
            }
            CorpusUnit { source, subs }
        })
        .collect()
}

/// Rename the template's subroutine and rewrite its `simdlen(..)` clause.
fn instantiate(template: &str, text: &str, name: &str, simdlen: u32) -> String {
    let mut out = String::with_capacity(text.len() + 32);
    for line in text.lines() {
        let trimmed = line.trim_start();
        let line = if trimmed.starts_with("subroutine ") || trimmed.starts_with("end subroutine ") {
            line.replacen(template, name, 1)
        } else {
            match line
                .find("simdlen(")
                .filter(|_| trimmed.starts_with("!$omp"))
            {
                Some(at) => {
                    let close = at + line[at..].find(')').expect("simdlen clause closes");
                    format!("{}simdlen({simdlen}){}", &line[..at], &line[close + 1..])
                }
                None => line.to_string(),
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Seeded vector in `[-1, 1)`.
pub fn vector(n: usize, seed: u64, salt: u64) -> Vec<f32> {
    layers::random_vec(n, seed.wrapping_mul(0x9e37_79b9).wrapping_add(salt))
}

/// One seeded SGESL system: an LU-factored `n`×`n` matrix (column-major,
/// `lda = n`), its pivot vector and a right-hand side.
#[derive(Clone, Debug)]
pub struct SgeslSystem {
    pub n: usize,
    pub a: Vec<f32>,
    pub ipvt: Vec<i32>,
    pub b: Vec<f32>,
}

pub fn sgesl_system(n: usize, seed: u64, salt: u64) -> SgeslSystem {
    let mut a = layers::random_matrix(n, seed.wrapping_mul(0x9e37_79b9).wrapping_add(salt));
    let ipvt = layers::sgefa_ref(&mut a, n);
    SgeslSystem {
        n,
        a,
        ipvt,
        b: vector(n, seed, salt ^ 0xabcd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_seeded_and_renamed() {
        let a = corpus(1, 2, 8);
        let b = corpus(1, 2, 8);
        let c = corpus(2, 2, 8);
        assert_eq!(a[1].source, b[1].source, "same seed, same corpus");
        assert_ne!(a[1].source, c[1].source, "another seed, another corpus");
        for (i, (template, _)) in TEMPLATES.iter().enumerate() {
            assert_eq!(a[0].subs[i].template, *template);
        }
        let saxpy = &a[0].subs[0].name;
        assert!(a[0]
            .source
            .contains(&format!("subroutine {saxpy}(n, a, x, y)")));
        assert!(a[0].source.contains(&format!("end subroutine {saxpy}")));
    }

    #[test]
    fn simdlen_is_rewritten_only_in_directives() {
        let text = instantiate("saxpy", layers::SAXPY_F90, "saxpy_u0_0", 16);
        assert!(text.contains("simdlen(16)"));
        assert!(
            text.contains("`target parallel do simd simdlen(10)`"),
            "comment untouched"
        );
        let text = instantiate("jacobi", layers::JACOBI_F90, "jacobi_u0_3", 16);
        assert!(!text.contains("simdlen"));
    }
}
