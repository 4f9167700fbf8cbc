//! Per-table experiment runners. Each regenerates one table of §4: same
//! workloads, same sizes — and prints the paper's reported value (its median
//! over 10 hardware runs) next to the simulated one so the reproduction
//! quality is visible at a glance. The simulator is deterministic: every
//! printed value is exactly what the II/depth cycle model produced, with no
//! spread to report.

use std::fmt::Write as _;

use ftn_fpga::{cpu_power_watts, fpga_power_watts, DeviceModel};

use crate::workloads;

/// A rendered table: title, column headers, and rows of cells.
#[derive(Clone, Debug, serde::Serialize)]
pub struct Table {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<(String, Vec<String>)>,
}

impl Table {
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = writeln!(out, "{:28} | {}", "", self.columns.join(" | "));
        for (name, cells) in &self.rows {
            let _ = writeln!(out, "{name:28} | {}", cells.join(" | "));
        }
        out
    }

    /// Cell text at (row name, column index).
    pub fn cell(&self, row: &str, col: usize) -> Option<&str> {
        self.rows
            .iter()
            .find(|(n, _)| n == row)
            .and_then(|(_, cells)| cells.get(col))
            .map(|s| s.as_str())
    }
}

fn fmt_ms(seconds: f64) -> String {
    format!("{:.3} ms", seconds * 1e3)
}

// Paper-reported values, for side-by-side printing.
pub const PAPER_T1_FORTRAN_MS: [f64; 4] = [1.251, 10.931, 110.245, 1073.044];
pub const PAPER_T1_HLS_MS: [f64; 4] = [1.258, 10.925, 110.148, 1072.888];
pub const PAPER_T2_FORTRAN_MS: [f64; 4] = [20.445, 80.791, 325.117, 1317.247];
pub const PAPER_T2_HLS_MS: [f64; 4] = [20.594, 81.121, 325.573, 1318.418];
pub const PAPER_T3: [(f64, f64, f64); 2] = [(8.29, 10.07, 0.10), (8.29, 10.07, 0.10)];
pub const PAPER_T4: [(f64, f64, f64); 2] = [(8.24, 10.07, 0.10), (8.22, 10.07, 0.23)];
pub const PAPER_T5_FORTRAN_W: [f64; 4] = [21.847, 23.528, 25.535, 24.167];
pub const PAPER_T5_HLS_W: [f64; 4] = [22.178, 22.496, 23.998, 24.297];
pub const PAPER_T5_CPU_W: [f64; 4] = [56.13, 55.08, 57.31, 54.91];
pub const PAPER_T6_FORTRAN_W: [f64; 4] = [21.866, 22.989, 24.243, 24.278];
pub const PAPER_T6_HLS_W: [f64; 4] = [22.363, 23.121, 23.640, 24.066];
pub const PAPER_T6_CPU_W: [f64; 4] = [52.70, 53.71, 52.44, 52.82];

/// SAXPY problem sizes (paper: 10K, 100K, 1M, 10M).
pub const SAXPY_SIZES: [usize; 4] = [10_000, 100_000, 1_000_000, 10_000_000];
/// SGESL problem sizes (paper: 256, 512, 1024, 2048).
pub const SGESL_SIZES: [usize; 4] = [256, 512, 1024, 2048];

/// Simulated kernel seconds `(n, Fortran, hand-written)` for both flows over
/// the given SAXPY sizes.
pub fn saxpy_runtimes(sizes: &[usize]) -> Vec<(usize, f64, f64)> {
    let artifacts = workloads::compile_saxpy();
    let manual = workloads::handwritten_saxpy_bitstream();
    sizes
        .iter()
        .map(|&n| {
            let f = workloads::run_saxpy_fortran(&artifacts, n, n as u64);
            let h = workloads::run_saxpy_handwritten(&manual, n, n as u64);
            (n, f.kernel_seconds, h.kernel_seconds)
        })
        .collect()
}

/// Simulated kernel seconds `(n, Fortran, hand-written)` for both flows over
/// the given SGESL sizes.
pub fn sgesl_runtimes(sizes: &[usize]) -> Vec<(usize, f64, f64)> {
    let artifacts = workloads::compile_sgesl();
    let manual = workloads::handwritten_sgesl_bitstream();
    sizes
        .iter()
        .map(|&n| {
            let f = workloads::run_sgesl_fortran(&artifacts, n, n as u64);
            let h = workloads::run_sgesl_handwritten(&manual, n, n as u64);
            (n, f.kernel_seconds, h.kernel_seconds)
        })
        .collect()
}

fn runtime_table(
    title: &str,
    label: &str,
    results: &[(usize, f64, f64)],
    paper_fortran: &[f64],
    paper_hls: &[f64],
) -> Table {
    let columns = results
        .iter()
        .map(|(n, _, _)| format!("{label}={n}"))
        .collect();
    let fortran: Vec<String> = results.iter().map(|(_, f, _)| fmt_ms(*f)).collect();
    let hls: Vec<String> = results.iter().map(|(_, _, h)| fmt_ms(*h)).collect();
    let diff: Vec<String> = results
        .iter()
        .map(|(_, f, h)| format!("{:+.2}%", (h / f - 1.0) * 100.0))
        .collect();
    let paper_f: Vec<String> = paper_fortran.iter().map(|v| format!("{v:.3} ms")).collect();
    let paper_h: Vec<String> = paper_hls.iter().map(|v| format!("{v:.3} ms")).collect();
    Table {
        title: title.to_string(),
        columns,
        rows: vec![
            ("Fortran OpenMP".into(), fortran),
            ("Hand-written HLS".into(), hls),
            ("Difference (HLS/Fortran)".into(), diff),
            ("paper: Fortran OpenMP".into(), paper_f),
            ("paper: Hand-written HLS".into(), paper_h),
        ],
    }
}

/// Table 1: SAXPY runtime, Fortran OpenMP vs hand-written HLS.
pub fn table1_saxpy_runtime(sizes: &[usize]) -> Table {
    let results = saxpy_runtimes(sizes);
    runtime_table(
        "Table 1: SAXPY runtime (simulated, deterministic)",
        "N",
        &results,
        &PAPER_T1_FORTRAN_MS[..sizes.len().min(4)],
        &PAPER_T1_HLS_MS[..sizes.len().min(4)],
    )
}

/// Table 2: SGESL runtime.
pub fn table2_sgesl_runtime(sizes: &[usize]) -> Table {
    let results = sgesl_runtimes(sizes);
    runtime_table(
        "Table 2: SGESL runtime (simulated, deterministic)",
        "N",
        &results,
        &PAPER_T2_FORTRAN_MS[..sizes.len().min(4)],
        &PAPER_T2_HLS_MS[..sizes.len().min(4)],
    )
}

fn resource_rows(
    fortran: &ftn_fpga::Bitstream,
    manual: &ftn_fpga::Bitstream,
    paper: &[(f64, f64, f64); 2],
) -> Vec<(String, Vec<String>)> {
    let device = DeviceModel::u280();
    let f = ftn_fpga::resources::utilisation_with_shell(&device, &fortran.kernel_resources());
    let h = ftn_fpga::resources::utilisation_with_shell(&device, &manual.kernel_resources());
    let row = |u: (f64, f64, f64)| {
        vec![
            format!("{:.2}", u.0),
            format!("{:.2}", u.1),
            format!("{:.2}", u.2),
        ]
    };
    vec![
        ("Fortran OpenMP".into(), row(f)),
        ("Hand-written HLS".into(), row(h)),
        (
            "paper: Fortran OpenMP".into(),
            vec![
                format!("{:.2}", paper[0].0),
                format!("{:.2}", paper[0].1),
                format!("{:.2}", paper[0].2),
            ],
        ),
        (
            "paper: Hand-written HLS".into(),
            vec![
                format!("{:.2}", paper[1].0),
                format!("{:.2}", paper[1].1),
                format!("{:.2}", paper[1].2),
            ],
        ),
    ]
}

/// Table 3: SAXPY resource utilisation (N = 10M bitstream).
pub fn table3_saxpy_resources() -> Table {
    let fortran = workloads::compile_saxpy();
    let manual = workloads::handwritten_saxpy_bitstream();
    Table {
        title: "Table 3: SAXPY resource utilisation (%, N=10M)".into(),
        columns: vec!["LUT %".into(), "BRAM %".into(), "DSP %".into()],
        rows: resource_rows(&fortran.bitstream, &manual, &PAPER_T3),
    }
}

/// Table 4: SGESL resource utilisation (N = 2048 bitstream) — the MAC
/// recognizer divergence shows up here.
pub fn table4_sgesl_resources() -> Table {
    let fortran = workloads::compile_sgesl();
    let manual = workloads::handwritten_sgesl_bitstream();
    Table {
        title: "Table 4: SGESL resource utilisation (%, N=2048)".into(),
        columns: vec!["LUT %".into(), "BRAM %".into(), "DSP %".into()],
        rows: resource_rows(&fortran.bitstream, &manual, &PAPER_T4),
    }
}

fn power_table(
    title: &str,
    results: &[(usize, f64, f64)],
    fortran_bs: &ftn_fpga::Bitstream,
    manual_bs: &ftn_fpga::Bitstream,
    cpu_bandwidth_util: f64,
    paper: (&[f64], &[f64], &[f64]),
) -> Table {
    let columns = results.iter().map(|(n, _, _)| format!("N={n}")).collect();
    let f_res = fortran_bs.kernel_resources();
    let h_res = manual_bs.kernel_resources();
    let fortran: Vec<String> = results
        .iter()
        .map(|(_, f, _)| format!("{:.2} W", fpga_power_watts(&f_res, *f)))
        .collect();
    let hls: Vec<String> = results
        .iter()
        .map(|(_, _, h)| format!("{:.2} W", fpga_power_watts(&h_res, *h)))
        .collect();
    let cpu: Vec<String> = results
        .iter()
        .map(|_| format!("{:.2} W", cpu_power_watts(cpu_bandwidth_util)))
        .collect();
    let paper_row = |vals: &[f64]| vals.iter().map(|v| format!("{v:.2} W")).collect::<Vec<_>>();
    Table {
        title: title.to_string(),
        columns,
        rows: vec![
            ("Fortran OpenMP".into(), fortran),
            ("Hand-written HLS".into(), hls),
            ("CPU single core".into(), cpu),
            ("paper: Fortran OpenMP".into(), paper_row(paper.0)),
            ("paper: Hand-written HLS".into(), paper_row(paper.1)),
            ("paper: CPU single core".into(), paper_row(paper.2)),
        ],
    }
}

/// Table 5: SAXPY power.
pub fn table5_saxpy_power(sizes: &[usize]) -> Table {
    let results = saxpy_runtimes(sizes);
    let fortran = workloads::compile_saxpy();
    let manual = workloads::handwritten_saxpy_bitstream();
    power_table(
        "Table 5: SAXPY power draw (simulated, deterministic)",
        &results,
        &fortran.bitstream,
        &manual,
        0.9, // streaming: memory-bandwidth bound on the CPU
        (
            &PAPER_T5_FORTRAN_W[..sizes.len().min(4)],
            &PAPER_T5_HLS_W[..sizes.len().min(4)],
            &PAPER_T5_CPU_W[..sizes.len().min(4)],
        ),
    )
}

/// Table 6: SGESL power.
pub fn table6_sgesl_power(sizes: &[usize]) -> Table {
    let results = sgesl_runtimes(sizes);
    let fortran = workloads::compile_sgesl();
    let manual = workloads::handwritten_sgesl_bitstream();
    power_table(
        "Table 6: SGESL power draw (simulated, deterministic)",
        &results,
        &fortran.bitstream,
        &manual,
        0.2, // latency-bound column sweeps
        (
            &PAPER_T6_FORTRAN_W[..sizes.len().min(4)],
            &PAPER_T6_HLS_W[..sizes.len().min(4)],
            &PAPER_T6_CPU_W[..sizes.len().min(4)],
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_small_sizes_shape_holds() {
        // Small sizes keep the test quick; shape checks still apply.
        let t = table1_saxpy_runtime(&[1_000, 10_000]);
        let rendered = t.render();
        assert!(rendered.contains("Fortran OpenMP"));
        // Flows within a few percent of each other.
        for col in 0..2 {
            let d = t.cell("Difference (HLS/Fortran)", col).unwrap();
            let pct: f64 = d.trim_end_matches('%').parse().unwrap();
            assert!(pct.abs() < 5.0, "flows must be close: {d}");
        }
    }

    #[test]
    fn table4_shows_dsp_divergence() {
        let t = table4_sgesl_resources();
        let f_dsp: f64 = t.cell("Fortran OpenMP", 2).unwrap().parse().unwrap();
        let h_dsp: f64 = t.cell("Hand-written HLS", 2).unwrap().parse().unwrap();
        assert!(
            h_dsp > f_dsp,
            "handwritten uses more DSPs: {h_dsp} vs {f_dsp}"
        );
        let f_lut: f64 = t.cell("Fortran OpenMP", 0).unwrap().parse().unwrap();
        let h_lut: f64 = t.cell("Hand-written HLS", 0).unwrap().parse().unwrap();
        assert!(f_lut > h_lut, "fortran uses more LUTs: {f_lut} vs {h_lut}");
        // Both in the paper's neighbourhood.
        assert!((8.0..8.6).contains(&f_lut), "{f_lut}");
    }

    #[test]
    fn power_tables_have_cpu_double_fpga() {
        let t = table5_saxpy_power(&[1_000]);
        let f: f64 = t
            .cell("Fortran OpenMP", 0)
            .unwrap()
            .trim_end_matches(" W")
            .parse()
            .unwrap();
        let c: f64 = t
            .cell("CPU single core", 0)
            .unwrap()
            .trim_end_matches(" W")
            .parse()
            .unwrap();
        assert!(c > 2.0 * (f - 21.2) + 45.0, "cpu {c} vs fpga {f}");
        assert!((20.0..27.0).contains(&f));
        assert!((50.0..58.0).contains(&c));
    }
}
