//! Cross-checks on the LLVM artifact leg: the emitted IR must be internally
//! consistent (every used SSA name defined, braces balanced, declares match
//! call sites) for both the modern and the LLVM-7 forms, across all three
//! benchmark programs.

use std::collections::HashSet;

use ftn_bench::workloads;
use ftn_core::Compiler;

fn artifacts_for(src: &str) -> ftn_core::Artifacts {
    Compiler::default().compile_source(src).unwrap()
}

/// Light structural validation of LLVM-IR text.
fn check_llvm_text(text: &str, ctx: &str) {
    // Balanced braces.
    let opens = text.matches('{').count();
    let closes = text.matches('}').count();
    assert_eq!(opens, closes, "{ctx}: unbalanced braces");
    // Per-function: every %N used was defined (params, phis, instructions).
    for chunk in text.split("define ").skip(1) {
        let body_end = chunk.find("\n}").unwrap_or(chunk.len());
        let body = &chunk[..body_end];
        let mut defined: HashSet<String> = HashSet::new();
        // Params: "(float* %0, i64 %1)".
        if let Some(open) = body.find('(') {
            let close = body[open..].find(')').map(|i| open + i).unwrap_or(open);
            for tok in body[open..close].split_whitespace() {
                if let Some(name) = tok.strip_suffix(',') {
                    if name.starts_with('%') {
                        defined.insert(name.to_string());
                    }
                } else if tok.starts_with('%') {
                    defined.insert(tok.to_string());
                }
            }
        }
        for line in body.lines() {
            let t = line.trim();
            if let Some(eq) = t.find(" = ") {
                let name = &t[..eq];
                if name.starts_with('%') {
                    defined.insert(name.to_string());
                }
            }
        }
        // Uses: any %name token (strip punctuation) must be defined, except
        // block labels (%bbN after "label").
        for line in body.lines() {
            let t = line.trim();
            let after_def = t.find(" = ").map(|i| i + 3).unwrap_or(0);
            for raw in t[after_def..].split(|c: char| " ,()[]".contains(c)) {
                if let Some(name) = raw.strip_suffix(':') {
                    let _ = name;
                    continue;
                }
                if raw.starts_with("%bb") || !raw.starts_with('%') || raw.len() < 2 {
                    continue;
                }
                assert!(
                    defined.contains(raw),
                    "{ctx}: use of undefined value {raw} in line '{t}'"
                );
            }
        }
    }
}

#[test]
fn saxpy_llvm_ir_is_consistent() {
    let a = artifacts_for(workloads::SAXPY_F90);
    check_llvm_text(&a.llvm_ir, "saxpy modern");
    check_llvm_text(&a.llvm7_ir, "saxpy llvm7");
    // The unroll produced 10 body replicas in the main loop: at least 10
    // getelementptr+load pairs per input.
    assert!(
        a.llvm_ir.matches("getelementptr").count() >= 20,
        "unrolled body expected"
    );
}

#[test]
fn sgesl_llvm_ir_is_consistent() {
    let a = artifacts_for(workloads::SGESL_F90);
    check_llvm_text(&a.llvm_ir, "sgesl modern");
    check_llvm_text(&a.llvm7_ir, "sgesl llvm7");
    // Two kernels.
    assert_eq!(a.llvm_ir.matches("define void @sgesl_kernel").count(), 2);
}

#[test]
fn dotprod_llvm_ir_is_consistent() {
    let a = artifacts_for(workloads::DOTPROD_F90);
    check_llvm_text(&a.llvm_ir, "dotprod modern");
    check_llvm_text(&a.llvm7_ir, "dotprod llvm7");
    // The reduction round-robin: 8 accumulator phis in the main loop header.
    assert!(a.llvm_ir.matches("phi float").count() >= 8, "{}", a.llvm_ir);
}

#[test]
fn declares_cover_all_external_calls() {
    let a = artifacts_for(workloads::SAXPY_F90);
    for text in [&a.llvm_ir, &a.llvm7_ir] {
        let called: HashSet<&str> = text
            .lines()
            .filter_map(|l| {
                let t = l.trim();
                t.contains("call ").then(|| {
                    let at = t.find('@')?;
                    let end = t[at..].find('(')? + at;
                    Some(&t[at + 1..end])
                })?
            })
            .collect();
        for c in called {
            let defined = text.contains(&format!("define void @{c}("))
                || text.contains(&format!("define float @{c}("))
                || text.contains("declare") && text.contains(&format!("@{c}"));
            assert!(defined, "call target @{c} neither defined nor declared");
        }
    }
}

/// An LLVM tool: from `LLVM_BIN` if set, else from `PATH`, else from
/// `/usr/lib/llvm-14/bin`. A missing tool fails the caller.
fn llvm_tool(name: &str) -> std::path::PathBuf {
    let mut dirs: Vec<std::path::PathBuf> = std::env::var_os("LLVM_BIN")
        .map(Into::into)
        .into_iter()
        .collect();
    if let Some(path) = std::env::var_os("PATH") {
        dirs.extend(std::env::split_paths(&path));
    }
    dirs.push("/usr/lib/llvm-14/bin".into());
    let found = dirs.iter().map(|d| d.join(name)).find(|p| p.is_file());
    found.unwrap_or_else(|| panic!("{name} not found (set LLVM_BIN or install LLVM 14)"))
}

/// Every benchmark's two `.ll` files — the modern opaque-pointer form and
/// the LLVM-7 typed-pointer form with its runtime library — assemble with
/// `llvm-as` and pass `opt -passes=verify` under LLVM 14.
#[test]
fn every_ll_file_assembles_and_verifies_under_llvm_14() {
    let (llvm_as, opt) = (llvm_tool("llvm-as"), llvm_tool("opt"));
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("llvm_verify");
    std::fs::create_dir_all(&dir).unwrap();
    let sources = [
        ("saxpy", workloads::SAXPY_F90),
        ("sgesl", workloads::SGESL_F90),
        ("dotprod", workloads::DOTPROD_F90),
        ("jacobi", workloads::JACOBI_F90),
        ("heat", workloads::HEAT_F90),
    ];
    let mut failures = Vec::new();
    for (name, src) in sources {
        let a = artifacts_for(src);
        // LLVM 14 reads `ptr` only with opaque pointers switched on.
        let forms = [("", &a.llvm_ir, true), ("_llvm7", &a.llvm7_ir, false)];
        for (suffix, text, opaque) in forms {
            let file = dir.join(format!("{name}{suffix}.ll"));
            std::fs::write(&file, text).unwrap();
            let flags: &[&str] = if opaque { &["-opaque-pointers"] } else { &[] };
            // `opt` builds a target for the module's triple, and LLVM 14 has
            // no backend for Vitis's `fpga64`; the verifier needs none.
            let runs = [
                (&llvm_as, vec!["-o", "/dev/null"]),
                (
                    &opt,
                    vec![
                        "-mtriple=unknown-unknown-unknown",
                        "-passes=verify",
                        "-disable-output",
                    ],
                ),
            ];
            for (tool, args) in runs {
                let out = std::process::Command::new(tool)
                    .args(flags)
                    .args(args)
                    .arg(&file)
                    .output()
                    .unwrap_or_else(|e| panic!("{}: {e}", tool.display()));
                if !out.status.success() {
                    let err = String::from_utf8_lossy(&out.stderr);
                    failures.push(format!("{} {}: {err}", tool.display(), file.display()));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
