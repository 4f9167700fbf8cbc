//! Byte-identical output, pinned: an FNV-1a hash of every text field of
//! `Artifacts`, of the serialized `Bitstream` and of the pass reports' op
//! counts, for the five `benchmarks/*.f90` and one seeded 64-subroutine
//! unit built from the same templates the `compile_corpus` workload draws
//! from. A change that alters any emitted byte — a printer, an emitter, the
//! order a pass visits ops in — fails here and must say so.
//!
//! To re-pin after an intended output change, run with `--nocapture` and
//! copy the table the failing assertion prints.

use ftn_core::{Artifacts, Compiler};

const TEMPLATES: [(&str, &str); 5] = [
    ("saxpy", include_str!("../benchmarks/saxpy.f90")),
    ("sgesl", include_str!("../benchmarks/sgesl.f90")),
    ("dotprod", include_str!("../benchmarks/dotprod.f90")),
    ("jacobi", include_str!("../benchmarks/jacobi.f90")),
    ("heat", include_str!("../benchmarks/heat.f90")),
];

const SIMDLENS: [u32; 5] = [2, 4, 8, 10, 16];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: the unit below must not depend on a vendored crate's stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rename the template's subroutine and rewrite its `simdlen(..)` clause.
fn instantiate(template: &str, text: &str, name: &str, simdlen: u32) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("subroutine ") || trimmed.starts_with("end subroutine ") {
            out.push_str(&line.replacen(template, name, 1));
        } else if let Some(at) = line
            .find("simdlen(")
            .filter(|_| trimmed.starts_with("!$omp"))
        {
            let close = at + line[at..].find(')').expect("simdlen clause closes");
            out.push_str(&format!(
                "{}simdlen({simdlen}){}",
                &line[..at],
                &line[close + 1..]
            ));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// 64 subroutines drawn from the templates: the first five cover them in
/// order, the rest and every `simdlen` are seeded.
fn corpus_unit(seed: u64) -> String {
    let mut state = seed;
    let mut source = String::new();
    for i in 0..64 {
        let pick = if i < TEMPLATES.len() {
            i
        } else {
            (next(&mut state) % TEMPLATES.len() as u64) as usize
        };
        let (template, text) = TEMPLATES[pick];
        let simdlen = SIMDLENS[(next(&mut state) % SIMDLENS.len() as u64) as usize];
        source.push_str(&instantiate(
            template,
            text,
            &format!("{template}_u0_{i}"),
            simdlen,
        ));
        source.push('\n');
    }
    source
}

fn hashes(artifacts: &Artifacts) -> [u64; 8] {
    let reports: String = artifacts
        .pass_reports
        .iter()
        .map(|r| format!("{} {} {};", r.name, r.ops_before, r.ops_after))
        .collect();
    [
        fnv1a(artifacts.fir_text.as_bytes()),
        fnv1a(artifacts.host_module_text.as_bytes()),
        fnv1a(artifacts.device_module_text.as_bytes()),
        fnv1a(artifacts.host_cpp.as_bytes()),
        fnv1a(artifacts.llvm_ir.as_bytes()),
        fnv1a(artifacts.llvm7_ir.as_bytes()),
        fnv1a(&artifacts.bitstream.to_bytes()),
        fnv1a(reports.as_bytes()),
    ]
}

/// `[fir_text, host_module_text, device_module_text, host_cpp, llvm_ir,
/// llvm7_ir, bitstream.to_bytes(), pass reports]` per unit.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 8]); 6] = [
    ("saxpy", [0x62aa834fcfe3aa9d, 0xaef2987fb28b1dff, 0x54070f0eb9f8a67c, 0x101fd0b9396227de, 0x6ca7ac29bcd30019, 0x569a76d65d018040, 0xdcf93ebd42feb636, 0x5e23220dae66578a]),
    ("sgesl", [0x2855bc5686ccfa12, 0x1b564457ec9f5025, 0xfc550758622122f3, 0x66d2682ed217a207, 0x91e4883a8992e6dc, 0x802c25131d41a97f, 0x9bb3caba1d05b9b4, 0xef92b5d437b25d20]),
    ("dotprod", [0x6e140ee3155f8ea1, 0x440c0e6c3578f8a3, 0x750e36a20ab3b4b9, 0xc3ee634b5464d0f8, 0x58f7754381c494bc, 0xb67b8a794a37ecf2, 0xe5bdb22aece46070, 0xefcebf276f03de1c]),
    ("jacobi", [0x74c60cefb5608b65, 0xc17c28b4f9d5bc93, 0xf63318ebfc65b50d, 0xd518b32f5d71f7cc, 0x37ca23841846116f, 0xb80f5ccb9939ea9d, 0xdf92ac2193adb84d, 0xb74c4e70a2b7addf]),
    ("heat", [0xe9310aef0e8984a2, 0x54dc3a9b7bdcdbd2, 0x6c55288de35b656d, 0xbac86c18dc39860b, 0x634e328392e00281, 0x91862d37641089c5, 0x1401e05b99f0889e, 0xa93b5017998fdff5]),
    ("corpus64", [0x1c3c3c974097fa27, 0x0eb5fd9c4a951ff8, 0x3ce532b4bab0a7de, 0xf24711b2457d6764, 0xdb7070dcda3ddf6d, 0x3981907f250f9313, 0x22612bb9985fa488, 0xa8f62c97ac10cb28]),
];

#[test]
fn artifacts_are_byte_identical_to_the_pinned_hashes() {
    let mut sources: Vec<(&str, String)> = TEMPLATES
        .iter()
        .map(|&(name, text)| (name, text.to_string()))
        .collect();
    sources.push(("corpus64", corpus_unit(15)));

    let actual: Vec<(&str, [u64; 8])> = sources
        .iter()
        .map(|(name, source)| {
            let artifacts = Compiler::default()
                .compile_source(source)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (*name, hashes(&artifacts))
        })
        .collect();

    let table: String = actual
        .iter()
        .map(|(name, h)| {
            let row: Vec<String> = h.iter().map(|x| format!("{x:#018x}")).collect();
            format!("    (\"{name}\", [{}]),\n", row.join(", "))
        })
        .collect();
    assert!(
        actual == GOLDEN,
        "artifacts changed; actual table:\n{table}"
    );
}
