//! The pass manager: runs a sequence of module-level transformations, with
//! optional verification between passes and per-pass timing/statistics —
//! the moral equivalent of `mlir-opt`'s pipeline driver.

use std::time::Instant;

use crate::ir::{Ir, OpId};
use crate::verifier::{verify, VerifierRegistry};

/// Error produced by a failing pass.
#[derive(Debug, Clone)]
pub struct PassError {
    pub pass: String,
    pub message: String,
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pass '{}' failed: {}", self.pass, self.message)
    }
}

impl std::error::Error for PassError {}

/// A module-level transformation.
pub trait Pass {
    /// Pipeline name, e.g. `lower-omp-mapped-data`.
    fn name(&self) -> &str;

    /// Human description, used when regenerating the paper's flow figures.
    fn description(&self) -> &str {
        ""
    }

    fn run(&mut self, ir: &mut Ir, module: OpId) -> Result<(), PassError>;
}

/// Timing/effect record for one executed pass.
#[derive(Debug, Clone)]
pub struct PassReport {
    pub name: String,
    pub micros: u128,
    pub ops_before: usize,
    pub ops_after: usize,
}

/// Runs passes in order and verifies the module after each.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    pub reports: Vec<PassReport>,
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PassManager {
    pub fn new() -> Self {
        PassManager {
            passes: Vec::new(),
            reports: Vec::new(),
        }
    }

    pub fn add(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Names of registered passes, in execution order.
    pub fn pipeline(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    pub fn run(
        &mut self,
        ir: &mut Ir,
        module: OpId,
        registry: &VerifierRegistry,
    ) -> Result<(), PassError> {
        for pass in &mut self.passes {
            let before = ir.live_op_count();
            let start = Instant::now();
            pass.run(ir, module)?;
            let micros = start.elapsed().as_micros();
            verify(ir, module, registry).map_err(|e| PassError {
                pass: pass.name().to_string(),
                message: format!("post-pass verification failed: {e}"),
            })?;
            self.reports.push(PassReport {
                name: pass.name().to_string(),
                micros,
                ops_before: before,
                ops_after: ir.live_op_count(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpSpec;
    use crate::walk::find_all;

    struct RenamePass;

    impl Pass for RenamePass {
        fn name(&self) -> &str {
            "rename-foo-to-bar"
        }

        fn run(&mut self, ir: &mut Ir, module: OpId) -> Result<(), PassError> {
            for op in find_all(ir, module, "test.foo") {
                let bar = ir.intern("test.bar");
                ir.op_mut(op).name = bar;
            }
            Ok(())
        }
    }

    #[test]
    fn pass_manager_runs_and_reports() {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let foo = ir.create_op(OpSpec::new("test.foo"));
        ir.append_op(block, foo);
        let module = ir.create_op(OpSpec::new("builtin.module").region(region));

        let mut pm = PassManager::new();
        pm.add(Box::new(RenamePass));
        assert_eq!(pm.pipeline(), vec!["rename-foo-to-bar"]);
        pm.run(&mut ir, module, &VerifierRegistry::new()).unwrap();
        assert!(ir.op_is(foo, "test.bar"));
        assert_eq!(pm.reports.len(), 1);
        assert_eq!(pm.reports[0].name, "rename-foo-to-bar");
    }
}
